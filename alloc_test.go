package libra_test

import (
	"testing"

	libra "repro"
)

// TestSteadyStateFrameAllocs bounds the per-frame heap allocation count of
// the steady-state loop with telemetry disabled. The seed of this work sat at
// ~32k allocations and ~16 MB per frame; the reuse architecture (renderer
// scratch, warp rings, binner, geometry pipeline, scene rebuild, DRAM queue)
// leaves only the tail of per-tile list growth as the animation shifts
// coverage between tiles. The bound is deliberately loose against that tail —
// the committed BENCH_ci.json baseline gates the precise number in CI.
func TestSteadyStateFrameAllocs(t *testing.T) {
	run, err := libra.NewRun(libra.LIBRA(640, 384, 2), "SuS")
	if err != nil {
		t.Fatal(err)
	}
	run.RenderFrames(4) // reach the scratch watermarks
	allocs := testing.AllocsPerRun(5, func() {
		run.RenderFrame()
	})
	const limit = 1500 // seed: ~32070/frame; steady state measures ~130
	if allocs > limit {
		t.Errorf("steady-state frame allocated %.0f times, want <= %d", allocs, limit)
	}
}

// TestSteadyStateFrameAllocsRenderElim is the same bound with Rendering
// Elimination enabled, in both coherence regimes. SuS scrolls every frame,
// so RE signs every tile and never skips — the pure-overhead worst case: the
// signature tables must reach their watermark and then stop allocating. AnB
// is the static-background case where most tiles skip; the skip path itself
// must allocate nothing.
func TestSteadyStateFrameAllocsRenderElim(t *testing.T) {
	for _, game := range []string{"SuS", "AnB"} {
		cfg := libra.LIBRA(640, 384, 2)
		cfg.RenderElim = true
		run, err := libra.NewRun(cfg, game)
		if err != nil {
			t.Fatal(err)
		}
		run.RenderFrames(4)
		allocs := testing.AllocsPerRun(5, func() {
			run.RenderFrame()
		})
		const limit = 1500
		if allocs > limit {
			t.Errorf("%s: steady-state RE frame allocated %.0f times, want <= %d", game, allocs, limit)
		}
	}
}

// TestSteadyStateFrameAllocsParallel is the same bound with the render-ahead
// helper, whose renderer and pooled TileWork slots must not reintroduce
// per-frame garbage.
func TestSteadyStateFrameAllocsParallel(t *testing.T) {
	cfg := libra.LIBRA(640, 384, 2)
	cfg.SimWorkers = 2
	run := newHelperRun(t, cfg, "SuS")
	run.RenderFrames(4)
	allocs := testing.AllocsPerRun(5, func() {
		run.RenderFrame()
	})
	const limit = 1500
	if allocs > limit {
		t.Errorf("steady-state parallel frame allocated %.0f times, want <= %d", allocs, limit)
	}
}
