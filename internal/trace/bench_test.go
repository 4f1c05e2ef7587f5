package trace

import (
	"bytes"
	"testing"

	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/raster"
	"repro/internal/tiling"
	"repro/internal/workloads"
)

// BenchmarkTraceWrite times trace capture alone: Write of one rendered frame
// of a memory-intensive game at 640×384 into a warm buffer. It is the
// trace row of BENCH_ci.json's layer ledger.
func BenchmarkTraceWrite(b *testing.B) {
	const w, h = 640, 384
	p, err := workloads.ByAbbrev("SuS")
	if err != nil {
		b.Fatal(err)
	}
	sc := p.New().BuildFrame(1)
	hier := mem.NewHierarchy(
		cache.Config{Name: "L2", SizeBytes: 2 * 1024 * 1024, LineBytes: 64, Ways: 8, HitLatency: 18},
		dram.DefaultConfig(),
	)
	gp := gpipe.New(gpipe.DefaultConfig(),
		cache.Config{Name: "vertex", SizeBytes: 4 * 1024, LineBytes: 64, Ways: 2, HitLatency: 1},
		hier)
	prims, _ := gp.Run(sc, w, h, 0)
	grid := tiling.NewGrid(w, h)
	lists := tiling.Bin(grid, prims)
	r := raster.NewRenderer(grid)
	fb := raster.NewFrameBuffer(w, h)
	ft := &FrameTrace{ScreenW: w, ScreenH: h, Tiles: make([]raster.TileWork, grid.NumTiles())}
	for tile := range ft.Tiles {
		r.RenderTileInto(&ft.Tiles[tile], sc, prims, lists.Lists[tile], tile, fb)
	}
	var buf bytes.Buffer
	if err := Write(&buf, ft); err != nil { // grow buf to the frame's size
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, ft); err != nil {
			b.Fatal(err)
		}
	}
}
