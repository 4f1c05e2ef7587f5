package libra_test

import (
	"fmt"
	"testing"

	libra "repro"
)

// BenchmarkFrame times one steady-state frame of the headline LIBRA
// configuration with telemetry disabled — the regression gate for the
// observability layer's zero-cost-when-off guarantee.
func BenchmarkFrame(b *testing.B) {
	run, err := libra.NewRun(libra.LIBRA(640, 384, 2), "SuS")
	if err != nil {
		b.Fatal(err)
	}
	run.RenderFrames(2) // warm caches and the adaptive controller
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.RenderFrame()
	}
}

// BenchmarkFrameRE times the steady-state frame with Rendering Elimination
// enabled, in both regimes: SuS (scrolling, zero skips — RE's signing
// overhead with no payoff) and AnB (static background, most tiles skipped).
// Both rows are gated in BENCH_ci.json, so RE's alloc count is pinned to the
// RE-off baseline in CI.
func BenchmarkFrameRE(b *testing.B) {
	for _, game := range []string{"SuS", "AnB"} {
		b.Run(game, func(b *testing.B) {
			cfg := libra.LIBRA(640, 384, 2)
			cfg.RenderElim = true
			run, err := libra.NewRun(cfg, game)
			if err != nil {
				b.Fatal(err)
			}
			run.RenderFrames(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.RenderFrame()
			}
		})
	}
}

// BenchmarkFrameWorkers times the same steady-state frame on the serial
// engine (workers=1) and with the render-ahead helper (workers=2), a
// goroutine rendering the scheduler's upcoming tiles while the timing replay
// runs — the speedup record for Config.SimWorkers. The engine caps helpers
// at GOMAXPROCS−1, so under -cpu 1 both rows are the serial engine. Every
// sub-benchmark computes byte-identical results; only wall-clock time may
// differ.
func BenchmarkFrameWorkers(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := libra.LIBRA(640, 384, 2)
			cfg.SimWorkers = workers
			run, err := libra.NewRun(cfg, "SuS")
			if err != nil {
				b.Fatal(err)
			}
			run.RenderFrames(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.RenderFrame()
			}
		})
	}
}
