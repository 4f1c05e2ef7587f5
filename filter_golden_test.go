package libra_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	libra "repro"
	"repro/internal/core"
	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/raster"
	"repro/internal/tiling"
	"repro/internal/workloads"
)

// filterDigest pins one (filtering mode, game) pair: frame 1's pixel hash
// and simulated cycles on Baseline(320,192,8), plus an FNV-1a hash over every
// tile's quad and texture-line stream of the same frame.
type filterDigest struct {
	FrameHash   uint64
	TotalCycles int64
	TileWork    uint64
}

// goldenFilterDigests extends TestGoldenFrameHashes (nearest filtering only)
// to the bilinear and trilinear footprints, whose texel lines depend on the
// selected mip level and its dimensions. Any change means the functional
// renderer or the texture addressing changed behaviour.
var goldenFilterDigests = map[string]filterDigest{
	"nearest/SuS":   {FrameHash: 0x4ab84f3a3dcde0bd, TotalCycles: 148801, TileWork: 0x263c05807deedf63},
	"nearest/HoW":   {FrameHash: 0xb6aa80ec7574620f, TotalCycles: 122112, TileWork: 0x37a0ef97fbe41fab},
	"nearest/CCS":   {FrameHash: 0x2f256ec7414541ef, TotalCycles: 101914, TileWork: 0x1db154f2f0dcaf48},
	"nearest/WoT":   {FrameHash: 0x97a925c6f57f465b, TotalCycles: 139979, TileWork: 0x8a0ee1788a763c5b},
	"nearest/AnB":   {FrameHash: 0x1ae08a2e87a43584, TotalCycles: 46688, TileWork: 0xb3ed6535aac52988},
	"bilinear/SuS":  {FrameHash: 0x4ab84f3a3dcde0bd, TotalCycles: 149227, TileWork: 0xd0a5426ad30d7a2f},
	"bilinear/HoW":  {FrameHash: 0xb6aa80ec7574620f, TotalCycles: 122292, TileWork: 0x509981a6f77e1d45},
	"bilinear/CCS":  {FrameHash: 0x2f256ec7414541ef, TotalCycles: 101342, TileWork: 0x6401ad17e648475c},
	"bilinear/WoT":  {FrameHash: 0x97a925c6f57f465b, TotalCycles: 139950, TileWork: 0xbf0e669f2f077b},
	"bilinear/AnB":  {FrameHash: 0x1ae08a2e87a43584, TotalCycles: 46677, TileWork: 0xca25f1767b93fd33},
	"trilinear/SuS": {FrameHash: 0x4ab84f3a3dcde0bd, TotalCycles: 149541, TileWork: 0x4836bdf4ac606a22},
	"trilinear/HoW": {FrameHash: 0xb6aa80ec7574620f, TotalCycles: 122813, TileWork: 0xcfd6e52c84470015},
	"trilinear/CCS": {FrameHash: 0x2f256ec7414541ef, TotalCycles: 101382, TileWork: 0x551fd3a8be886f2f},
	"trilinear/WoT": {FrameHash: 0x97a925c6f57f465b, TotalCycles: 140293, TileWork: 0x72b98ea04d71c35d},
	"trilinear/AnB": {FrameHash: 0x1ae08a2e87a43584, TotalCycles: 46733, TileWork: 0xbbd5b2b25798b266},
}

var filterGoldenGames = []string{"SuS", "HoW", "CCS", "WoT", "AnB"}

func TestGoldenFilterDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 15 frames at 320x192")
	}
	for _, filter := range []string{"nearest", "bilinear", "trilinear"} {
		for _, game := range filterGoldenGames {
			key := filter + "/" + game
			cfg := libra.Baseline(320, 192, 8)
			cfg.Filtering = filter
			r, err := libra.NewRun(cfg, game)
			if err != nil {
				t.Fatal(err)
			}
			fr := r.RenderFrames(2)[1]
			got := filterDigest{
				FrameHash:   fr.FrameHash,
				TotalCycles: fr.TotalCycles,
				TileWork:    tileWorkDigest(t, game, filter, 320, 192, 1),
			}
			want, ok := goldenFilterDigests[key]
			if !ok {
				t.Errorf("%s: no golden digest recorded; got\n\t%q: {FrameHash: %#x, TotalCycles: %d, TileWork: %#x},",
					key, key, got.FrameHash, got.TotalCycles, got.TileWork)
				continue
			}
			if got != want {
				t.Errorf("%s: digest %+v, golden %+v", key, got, want)
			}
		}
	}
}

// tileWorkDigest renders frame of game through the functional pipeline
// (geometry, binning, every tile in order) and hashes each tile's Quads and
// TexLines.
func tileWorkDigest(t *testing.T, game, filter string, w, h, frame int) uint64 {
	t.Helper()
	p, err := workloads.ByAbbrev(game)
	if err != nil {
		t.Fatal(err)
	}
	cc := core.DefaultConfig(w, h)
	gp := gpipe.New(cc.Geometry, cc.VertexCache, mem.NewHierarchy(cc.L2, cc.DRAM))
	sc := p.New().BuildFrame(frame)
	prims, _ := gp.Run(sc, w, h, 0)
	grid := tiling.NewGrid(w, h)
	lists := tiling.Bin(grid, prims)

	r := raster.NewRenderer(grid)
	switch filter {
	case "bilinear":
		r.SetFiltering(raster.FilterBilinear)
	case "trilinear":
		r.SetFiltering(raster.FilterTrilinear)
	}
	fb := raster.NewFrameBuffer(w, h)
	hs := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		hs.Write(buf[:])
	}
	var work raster.TileWork
	for tile := range lists.Lists {
		r.RenderTileInto(&work, sc, prims, lists.Lists[tile], tile, fb)
		put(uint64(tile))
		put(uint64(len(work.Quads)))
		for _, q := range work.Quads {
			put(uint64(q.Fragments))
			put(uint64(q.Instr))
			put(uint64(q.TexStart))
			put(uint64(q.TexCount))
			put(uint64(q.Samples))
		}
		put(uint64(len(work.TexLines)))
		for _, l := range work.TexLines {
			put(l)
		}
	}
	return hs.Sum64()
}
