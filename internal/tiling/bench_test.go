package tiling

import (
	"testing"

	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/scene"
	"repro/internal/workloads"
)

// benchFrame is one frame of a memory-intensive game at 640×384 after the
// Geometry Pipeline: the tiling layer's input in the steady-state loop.
func benchFrame(b *testing.B) (Grid, []gpipe.Primitive, *scene.Scene) {
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
	return NewGrid(w, h), prims, sc
}

// BenchmarkBin times the Polygon List Builder alone: one frame's primitives
// binned into a reused Binner's tile lists, the frame loop's form of Bin.
// It is the binning row of BENCH_ci.json's layer ledger.
func BenchmarkBin(b *testing.B) {
	grid, prims, _ := benchFrame(b)
	var bn Binner
	bn.Bin(grid, prims) // grow the lists to their watermark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.Bin(grid, prims)
	}
}

// BenchmarkTileSignatures times Rendering Elimination's input signatures
// alone: AppendTileSignatures over every tile of one binned frame into a
// reused slice. It is the signature row of BENCH_ci.json's layer ledger.
func BenchmarkTileSignatures(b *testing.B) {
	grid, prims, sc := benchFrame(b)
	lists := Bin(grid, prims)
	sig := AppendTileSignatures(nil, lists, prims, sc, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig = AppendTileSignatures(sig[:0], lists, prims, sc, 0)
	}
}
