package gpipe

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/workloads"
)

// BenchmarkGeometry times the Geometry Pipeline layer alone: Run over one
// frame of a memory-intensive game at 640×384, with the vertex cache, L2
// and DRAM warm from the previous frame, as in the steady-state frame loop.
// It is the geometry row of BENCH_ci.json's layer ledger.
func BenchmarkGeometry(b *testing.B) {
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
	gp := New(DefaultConfig(),
		cache.Config{Name: "vertex", SizeBytes: 4 * 1024, LineBytes: 64, Ways: 2, HitLatency: 1},
		hier)
	gp.Run(sc, w, h, 0) // warm the caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp.Run(sc, w, h, 0)
	}
}
