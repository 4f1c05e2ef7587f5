package main

import (
	"testing"

	libra "repro"
)

// The traced composition calls each layer's public functions itself; it is
// only a valid trace of libra.Run if it renders the same frames.
func TestCompositionMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		game   string
		policy libra.Policy
		re     bool
	}{
		{"AnB", libra.PolicyLIBRA, true}, // coherent: RE skips most tiles
		{"AnB", libra.PolicyZOrder, false},
		{"FrF", libra.PolicyLIBRA, true},  // scrolling: RE skips nothing
		{"SuS", libra.PolicyLIBRA, false}, // memory-intensive
	} {
		cfg := libra.LIBRA(160, 96, frameRUs)
		if tc.policy == libra.PolicyZOrder {
			cfg = libra.PTR(160, 96, frameRUs)
		}
		cfg.L2KB = 128
		cfg.RenderElim = tc.re
		run, err := libra.NewRun(cfg, tc.game)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := newComposer(cfg, tc.game)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		skipped := 0
		for i := 0; i < 8; i++ {
			f := run.RenderFrame()
			c := comp.frame(tr)
			if err := matchComposed(tc.game, f, c); err != nil {
				t.Fatalf("%+v: %v", tc, err)
			}
			if c.tilesSkipped != f.TilesSkipped || c.dramAccesses != f.DRAMAccesses {
				t.Fatalf("%+v frame %d: skipped %d/%d dram %d/%d", tc, i,
					c.tilesSkipped, f.TilesSkipped, c.dramAccesses, f.DRAMAccesses)
			}
			skipped += c.tilesSkipped
		}
		if tc.re && tc.game == "AnB" && skipped == 0 {
			t.Errorf("%+v: no tiles skipped; the coherent case does not exercise the skip path", tc)
		}
		if got := len(tr.spans); got != 8*numSpans {
			t.Errorf("%+v: %d spans recorded, want %d", tc, got, 8*numSpans)
		}
	}
}

func TestCoreConfigRejectsUnmodelledSettings(t *testing.T) {
	cfg := libra.LIBRA(64, 64, 1)
	cfg.Filtering = "bilinear"
	if _, err := coreConfig(cfg); err == nil {
		t.Error("bilinear filtering accepted; the composition does not model it")
	}
	cfg = libra.LIBRA(64, 64, 1)
	cfg.Policy = libra.PolicyHilbert
	if _, err := coreConfig(cfg); err == nil {
		t.Error("hilbert policy accepted; the composition does not model it")
	}
}

func TestLayerMetricsAddUp(t *testing.T) {
	var ls layerStats
	ls.frames, ls.untracedFrames = 2, 2
	ls.spanNS[spanRaster] = 6e6
	ls.spanNS[spanReplay] = 2e6
	ls.untracedNS = 10e6
	ls.tracedNS = 11e6
	m := ls.metrics(0)
	if got := m["raster.render_ms"].Value; got != 3 {
		t.Errorf("raster.render_ms = %v, want 3", got)
	}
	// 5 ms untraced per frame, 4 ms of it inside layer spans.
	if got := m["core.self_ms"].Value; got != 1 {
		t.Errorf("core.self_ms = %v, want 1", got)
	}
	if got := m["bench.trace_overhead_pct"].Value; got != 10 {
		t.Errorf("bench.trace_overhead_pct = %v, want 10", got)
	}
	if got := m["sim.skip_ratio"].Value; got != 0 {
		t.Errorf("skip ratio with no signatures = %v, want 0", got)
	}
}
