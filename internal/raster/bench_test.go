package raster

import (
	"testing"

	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/tiling"
	"repro/internal/workloads"
)

// BenchmarkRenderTileInto times the functional rasterization of one whole
// frame — every tile of a memory-intensive game at 640×384, rendered into
// warm, reused TileWorks — under nearest and trilinear filtering. It is the
// raster layer's own row in BENCH_ci.json, beneath BenchmarkFrame.
func BenchmarkRenderTileInto(b *testing.B) {
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

	for _, f := range []struct {
		name   string
		filter Filtering
	}{{"nearest", FilterNearest}, {"trilinear", FilterTrilinear}} {
		b.Run(f.name, func(b *testing.B) {
			r := NewRenderer(grid)
			r.SetFiltering(f.filter)
			fb := NewFrameBuffer(w, h)
			works := make([]TileWork, grid.NumTiles())
			frame := func() {
				for tile := range lists.Lists {
					r.RenderTileInto(&works[tile], sc, prims, lists.Lists[tile], tile, fb)
				}
			}
			frame() // grow every TileWork to its watermark
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame()
			}
		})
	}
}
