package libra_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	libra "repro"
)

// equivalenceConfig is the matrix configuration: the full LIBRA proposal so
// the adaptive controller, temperature scheduler and supertile resizing are
// all in the loop — the parts whose decisions would drift first if parallel
// rasterization leaked any nondeterminism into the timing model.
func equivalenceConfig(workers int) libra.Config {
	cfg := libra.LIBRA(320, 192, 2)
	cfg.SimWorkers = workers
	return cfg
}

// renderMatrixFrames runs one benchmark under the matrix config and returns
// the per-frame results plus the last frame's pixels.
func renderMatrixFrames(t *testing.T, game string, workers, frames int) ([]libra.FrameResult, []uint32) {
	t.Helper()
	r := newHelperRun(t, equivalenceConfig(workers), game)
	return r.RenderFrames(frames), r.FramePixels()
}

// helperProcs serializes newHelperRun's GOMAXPROCS raises, so parallel
// subtests never restore each other's setting mid-build.
var helperProcs sync.Mutex

// newHelperRun builds a run that gets its render-ahead helper on any host
// unless cfg asks for the serial engine (SimWorkers 1): an engine sizes its
// helpers from GOMAXPROCS when it is built, so the run is built under at
// least two, then renders under the test's own GOMAXPROCS. Without this a
// single-CPU host would compare the serial engine with itself.
func newHelperRun(t *testing.T, cfg libra.Config, game string) *libra.Run {
	t.Helper()
	helperProcs.Lock()
	defer helperProcs.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	r, err := libra.NewRun(cfg, game)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// frameLine formats a frame result the way cmd/librasim prints it, so the
// comparison below covers the user-visible stdout byte for byte, not just the
// struct fields.
func frameLine(f libra.FrameResult) string {
	return fmt.Sprintf("frame %2d: %9d cycles  %6.1f fps  order=%-11s st=%-2d texHit=%.3f texLat=%5.1f dram=%7d energy=%7.0fuJ",
		f.Frame, f.TotalCycles, f.FPS, f.Order, f.Supertile, f.TexHitRatio, f.AvgTexLatency, f.DRAMAccesses, f.Energy.Total)
}

// TestSerialParallelEquivalenceMatrix renders every registered benchmark
// under the serial reference engine (SimWorkers 1: no render-ahead helper)
// and with the render-ahead helper that SimWorkers 0 (the default) and 2
// give, and requires every externally visible result — each frame's
// full FrameResult (cycles, hashes, cache and DRAM statistics, per-RU load,
// per-tile heatmaps), the formatted stdout lines, the run summary and the
// final frame pixels — to be identical. This is the contract stated on
// Config.SimWorkers: the worker count is a host-side execution detail that
// must never be observable in simulation results.
func TestSerialParallelEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite three times")
	}
	const frames = 3
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			ref, refPix := renderMatrixFrames(t, b.Abbrev, 1, frames)
			refSum := libra.Summarize(ref, 1).String()
			for _, workers := range []int{0, 2} {
				got, gotPix := renderMatrixFrames(t, b.Abbrev, workers, frames)
				for i := range ref {
					if !reflect.DeepEqual(ref[i], got[i]) {
						t.Errorf("workers=%d frame %d diverges from serial reference:\nserial:   %s\nparallel: %s",
							workers, i, frameLine(ref[i]), frameLine(got[i]))
					}
				}
				if sum := libra.Summarize(got, 1).String(); sum != refSum {
					t.Errorf("workers=%d summary diverges:\nserial:   %s\nparallel: %s", workers, refSum, sum)
				}
				if !reflect.DeepEqual(refPix, gotPix) {
					t.Errorf("workers=%d final frame pixels diverge from serial reference", workers)
				}
			}
		})
	}
}

// renderMatrixFramesRE is renderMatrixFrames with the Rendering Elimination
// axis added.
func renderMatrixFramesRE(t *testing.T, game string, workers, frames int, re bool) ([]libra.FrameResult, []uint32) {
	t.Helper()
	cfg := equivalenceConfig(workers)
	cfg.RenderElim = re
	r := newHelperRun(t, cfg, game)
	return r.RenderFrames(frames), r.FramePixels()
}

// TestRenderElimEquivalenceMatrix extends the 32-profile matrix with the
// Rendering Elimination axis: {RE off, RE on} × {serial engine, the
// render-ahead helper of SimWorkers 0 and 4}. Within
// each RE setting the serial and parallel cells must be fully DeepEqual
// (frames, summaries, pixels) — SimWorkers stays unobservable with skips in
// play. Across the RE axis, rendered output must be identical on every
// profile: final pixels DeepEqual and every frame's FrameHash equal. RE may
// only change cycle/energy accounting where the run actually skipped tiles
// (was coherent); on profiles where nothing was skipped the frames must be
// DeepEqual outright.
func TestRenderElimEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite four times")
	}
	const frames = 3
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			off, offPix := renderMatrixFramesRE(t, b.Abbrev, 1, frames, false)
			on, onPix := renderMatrixFramesRE(t, b.Abbrev, 1, frames, true)

			// Serial vs the render-ahead helper, inside each RE setting.
			for _, cell := range []struct {
				re   bool
				ref  []libra.FrameResult
				pix  []uint32
				name string
			}{
				{false, off, offPix, "RE off"},
				{true, on, onPix, "RE on"},
			} {
				for _, workers := range []int{0, 4} {
					par, parPix := renderMatrixFramesRE(t, b.Abbrev, workers, frames, cell.re)
					for i := range cell.ref {
						if !reflect.DeepEqual(cell.ref[i], par[i]) {
							t.Errorf("%s workers=%d: helper frame %d diverges from serial:\nserial:   %s\nparallel: %s",
								cell.name, workers, i, frameLine(cell.ref[i]), frameLine(par[i]))
						}
					}
					if a, b := libra.Summarize(cell.ref, 1).String(), libra.Summarize(par, 1).String(); a != b {
						t.Errorf("%s workers=%d: helper summary diverges:\nserial:   %s\nparallel: %s", cell.name, workers, a, b)
					}
					if !reflect.DeepEqual(cell.pix, parPix) {
						t.Errorf("%s workers=%d: helper final pixels diverge from serial", cell.name, workers)
					}
				}
			}

			// Across the RE axis: rendered output is inviolable.
			if !reflect.DeepEqual(offPix, onPix) {
				t.Errorf("RE on changes final frame pixels")
			}
			skipped := 0
			for i := range off {
				if off[i].FrameHash != on[i].FrameHash {
					t.Errorf("frame %d: RE on changes FrameHash %#x -> %#x",
						i, off[i].FrameHash, on[i].FrameHash)
				}
				skipped += on[i].TilesSkipped
			}
			if skipped == 0 {
				// No coherence found: RE must be a complete no-op, cycle and
				// energy accounting included.
				for i := range off {
					if !reflect.DeepEqual(off[i], on[i]) {
						t.Errorf("frame %d: zero tiles skipped but RE on still changes results:\noff: %s\non:  %s",
							i, frameLine(off[i]), frameLine(on[i]))
					}
				}
			}
		})
	}
}

// TestGoldenFrameHashesParallel is the parallel twin of
// TestGoldenFrameHashes: the engine with its render-ahead helper must
// reproduce the committed golden hashes exactly, tying it to the same
// long-lived reference the serial renderer answers to.
func TestGoldenFrameHashesParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite")
	}
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenFrameHashes[b.Abbrev]
			if !ok {
				t.Fatalf("%s: no golden hash recorded", b.Abbrev)
			}
			cfg := libra.Baseline(320, 192, 8)
			cfg.SimWorkers = 4
			r := newHelperRun(t, cfg, b.Abbrev)
			if got := r.RenderFrames(2)[1].FrameHash; got != want {
				t.Errorf("%s: render-ahead frame hash %#x, golden %#x", b.Abbrev, got, want)
			}
		})
	}
}

// renderMatrixFramesReplay is renderMatrixFramesRE with the deprecated
// Config.ReplayWorkers field set.
func renderMatrixFramesReplay(t *testing.T, game string, simWorkers, replayWorkers, frames int, re bool) ([]libra.FrameResult, []uint32) {
	t.Helper()
	cfg := equivalenceConfig(simWorkers)
	cfg.ReplayWorkers = replayWorkers
	cfg.RenderElim = re
	r := newHelperRun(t, cfg, game)
	return r.RenderFrames(frames), r.FramePixels()
}

// TestReplayEquivalenceMatrix pins that Config.ReplayWorkers is read by
// nothing: it is still accepted (existing configs and /v1/run bodies set
// it) but the parallel timing replay it once sized is gone, so setting it
// must never be observable. Every registered benchmark × {serial engine,
// render-ahead helper of SimWorkers 0 and 4} with ReplayWorkers 2 or 4 ×
// {RE off, on} must reproduce the serial reference (SimWorkers 1, no
// ReplayWorkers) exactly — full FrameResult DeepEqual, the summary line and
// final pixels. Across the RE axis the rendered output (pixels, FrameHash)
// must be identical as ever.
func TestReplayEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite eight times")
	}
	const frames = 3
	cells := []struct{ sw, rw int }{{1, 4}, {0, 2}, {4, 4}}
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			var refPixByRE [2][]uint32
			var refHashByRE [2][]uint64
			for reIdx, re := range []bool{false, true} {
				reName := "RE off"
				if re {
					reName = "RE on"
				}
				ref, refPix := renderMatrixFramesReplay(t, b.Abbrev, 1, 0, frames, re)
				refSum := libra.Summarize(ref, 1).String()
				refPixByRE[reIdx] = refPix
				for i := range ref {
					refHashByRE[reIdx] = append(refHashByRE[reIdx], ref[i].FrameHash)
				}
				for _, cell := range cells {
					got, gotPix := renderMatrixFramesReplay(t, b.Abbrev, cell.sw, cell.rw, frames, re)
					for i := range ref {
						if !reflect.DeepEqual(ref[i], got[i]) {
							t.Errorf("%s sw=%d rw=%d frame %d diverges from serial reference:\nserial: %s\ngot:    %s",
								reName, cell.sw, cell.rw, i, frameLine(ref[i]), frameLine(got[i]))
						}
					}
					if sum := libra.Summarize(got, 1).String(); sum != refSum {
						t.Errorf("%s sw=%d rw=%d summary diverges:\nserial: %s\ngot:    %s",
							reName, cell.sw, cell.rw, refSum, sum)
					}
					if !reflect.DeepEqual(refPix, gotPix) {
						t.Errorf("%s sw=%d rw=%d final frame pixels diverge from serial reference",
							reName, cell.sw, cell.rw)
					}
				}
			}
			if !reflect.DeepEqual(refPixByRE[0], refPixByRE[1]) {
				t.Errorf("RE on changes final frame pixels")
			}
			for i := range refHashByRE[0] {
				if refHashByRE[0][i] != refHashByRE[1][i] {
					t.Errorf("frame %d: RE on changes FrameHash %#x -> %#x",
						i, refHashByRE[0][i], refHashByRE[1][i])
				}
			}
		})
	}
}

// TestGoldenFrameHashesReplay is the golden-hash twin of
// TestReplayEquivalenceMatrix: the render-ahead engine (SimWorkers 4) with
// the deprecated ReplayWorkers 4 set — the configuration that once composed
// 4-worker rasterization with 4-worker timing replay — must reproduce the
// committed golden hashes exactly.
func TestGoldenFrameHashesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite")
	}
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenFrameHashes[b.Abbrev]
			if !ok {
				t.Fatalf("%s: no golden hash recorded", b.Abbrev)
			}
			cfg := libra.Baseline(320, 192, 8)
			cfg.SimWorkers = 4
			cfg.ReplayWorkers = 4
			r := newHelperRun(t, cfg, b.Abbrev)
			if got := r.RenderFrames(2)[1].FrameHash; got != want {
				t.Errorf("%s: frame hash with ReplayWorkers 4 %#x, golden %#x", b.Abbrev, got, want)
			}
		})
	}
}
