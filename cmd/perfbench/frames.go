package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	libra "repro"
)

// frameConfig is the frame workloads' GPU: LIBRA 2 RU x 4 cores at
// 640x384 with a 1 MiB L2 (experiments.DefaultParams' shape), serial engine.
func frameConfig(re bool) libra.Config {
	cfg := libra.LIBRA(frameScreen.W, frameScreen.H, frameRUs)
	cfg.L2KB = frameL2KB
	cfg.RenderElim = re
	return cfg
}

// minFrames is the least number of steady-state frames a run measures, so
// latency_ms_tail (p90) has at least ten frames beyond it.
const minFrames = 100

// setupRepeats is how many times a run performs its set-up; setup_s is the
// median, each repetition calibrated by setupCalRuns runs of the loop
// right after it.
const (
	setupRepeats = 3
	setupCalRuns = 9
)

// checker counts output checks against the reference hashes.
type checker struct {
	refs      *refTable
	attempted int
	failed    int
}

// frame checks one rendered frame; an error means the frame lies outside
// the reference table (a benchmark bug, not a wrong output).
func (c *checker) frame(game string, scr screen, f libra.FrameResult) error {
	ok, err := c.refs.check(game, scr, f.Frame, f.FrameHash)
	if err != nil {
		return err
	}
	c.attempted++
	if !ok {
		c.failed++
	}
	return nil
}

// gameState is one game of a frame workload: its untraced run, and in a
// traced run the composition rendering the same frames beside it.
type gameState struct {
	game string
	run  *libra.Run
	comp *composer
	// Simulated cycles and DRAM accesses over the first pass; every pass
	// renders the same frames.
	cyc  int64
	dram uint64
}

// start (re)creates the game's run (and composition when traced) and
// renders the warm-up frames, checking them.
func (g *gameState) start(cfg libra.Config, traced bool, chk *checker) error {
	run, err := libra.NewRun(cfg, g.game)
	if err != nil {
		return err
	}
	g.run, g.comp = run, nil
	if traced {
		if g.comp, err = newComposer(cfg, g.game); err != nil {
			return err
		}
	}
	tr := newTracer()
	for i := 0; i < frameWarmup; i++ {
		f := g.run.RenderFrame()
		if err := chk.frame(g.game, frameScreen, f); err != nil {
			return err
		}
		if g.comp != nil {
			if err := matchComposed(g.game, f, g.comp.frame(tr)); err != nil {
				return err
			}
		}
	}
	return nil
}

// matchComposed aborts a traced run whose composition diverged from the
// untraced run.
func matchComposed(game string, f libra.FrameResult, c composedFrame) error {
	if c.hash != f.FrameHash || c.totalCycles != f.TotalCycles {
		return fmt.Errorf("traced composition diverged from libra.Run on %s frame %d: hash %x/%x cycles %d/%d",
			game, f.Frame, c.hash, f.FrameHash, c.totalCycles, f.TotalCycles)
	}
	return nil
}

// runtimeCounters reads the runtime's cumulative allocation and CPU
// counters.
type runtimeCounters struct {
	samples []metrics.Sample
}

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// read returns allocated objects, allocated bytes, GC CPU seconds and total
// CPU seconds so far.
func (r *runtimeCounters) read() (objects, bytes uint64, gcCPU, totalCPU float64) {
	metrics.Read(r.samples)
	return r.samples[0].Value.Uint64(), r.samples[1].Value.Uint64(),
		r.samples[2].Value.Float64(), r.samples[3].Value.Float64()
}

// runFrames runs frames-mem or frames-re.
func runFrames(ctx context.Context, o options, refs *refTable) (*report, error) {
	games, err := frameGamesFor(o.workload, o.seed, refs)
	if err != nil {
		return nil, err
	}
	cfg := frameConfig(o.workload == "frames-re")
	chk := &checker{refs: refs}

	// Set-up: NewRun plus the warm-up frames of every game, repeated; the
	// last repetition's games are measured.
	var setups []float64
	var states []*gameState
	for rep := 0; rep < setupRepeats; rep++ {
		t0 := time.Now()
		states = states[:0]
		for _, g := range games {
			st := &gameState{game: g}
			if err := st.start(cfg, o.trace, chk); err != nil {
				return nil, err
			}
			states = append(states, st)
		}
		setups = append(setups, calibratedSeconds(time.Since(t0), calibrationMedian(setupCalRuns)))
	}

	stopProfile, err := startProfile(o.cpuProfile)
	if err != nil {
		return nil, err
	}
	rc := newRuntimeCounters()
	_, _, gc0, cpu0 := rc.read()
	var ls layerStats
	tr := newTracer()
	pass := passFrames(o.workload)
	var lat, raw, cal []float64 // calibrated and raw frame times, calibration runs; ms
	begin := time.Now()
	deadline := begin.Add(hardDeadline)
	// Whole passes: every game's steady frames frameWarmup..frameWarmup+pass-1,
	// round-robin across games, each pass from fresh runs.
	passes := 0
	for ; passes == 0 || time.Since(begin).Seconds() < o.seconds || len(lat) < minFrames; passes++ {
		if time.Now().After(deadline) {
			return nil, errDeadline
		}
		if passes > 0 {
			for _, st := range states {
				if err := st.start(cfg, o.trace, chk); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < pass; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, st := range states {
				var f libra.FrameResult
				var d time.Duration
				c0 := calibrate()
				if !o.trace {
					t0 := time.Now()
					f = st.run.RenderFrame()
					d = time.Since(t0)
				} else {
					// Alternate which of the pair runs first, so neither
					// always finds the other's data in the host caches.
					var c composedFrame
					if i%2 == 1 {
						c = st.comp.frame(tr)
					}
					obj0, b0, _, _ := rc.read()
					t0 := time.Now()
					f = st.run.RenderFrame()
					d = time.Since(t0)
					obj1, b1, _, _ := rc.read()
					if i%2 == 0 {
						c = st.comp.frame(tr)
					}
					if err := matchComposed(st.game, f, c); err != nil {
						return nil, err
					}
					ls.addComposed(c)
					ls.addUntraced(d, obj1-obj0, b1-b0)
				}
				if err := chk.frame(st.game, frameScreen, f); err != nil {
					return nil, err
				}
				c1 := calibrate()
				lat = append(lat, calibrated(d, c0, c1))
				raw = append(raw, float64(d)/float64(time.Millisecond))
				cal = append(cal, float64(c0+c1)/2/float64(time.Millisecond))
				if passes == 0 {
					st.cyc += f.TotalCycles
					st.dram += f.DRAMAccesses
				}
			}
			ls.addSpans(tr)
		}
	}
	_, _, gc1, cpu1 := rc.read()
	if err := stopProfile(); err != nil {
		return nil, err
	}

	var cyc, dram float64
	for _, st := range states {
		cyc += float64(st.cyc)
		dram += float64(st.dram)
	}
	pre := float64(pass * len(states))
	rep := &report{
		result: result{Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metric{
			"latency_ms_p50":          {median(lat), "ms"},
			"latency_ms_tail":         {percentile(lat, 0.9), "ms"},
			"throughput_per_s":        {1000 / mean(lat), "1/s"},
			"sim_cycles_per_frame":    {cyc / pre, "cycles"},
			"dram_accesses_per_frame": {dram / pre, "count"},
			"ok_ratio":                {1 - ratio(float64(chk.failed), float64(chk.attempted)), "ratio"},
			"setup_s":                 {median(setups), "s"},
		}},
		samples: map[string]int{
			"latency_ms_p50": len(lat), "latency_ms_tail": len(lat), "throughput_per_s": len(lat),
			"passes":               passes,
			"sim_cycles_per_frame": int(pre), "dram_accesses_per_frame": int(pre), "setup_s": len(setups),
		},
		tailPercentile: 0.9,
		extra: map[string]float64{
			"frame_ms_p50_uncalibrated": median(raw),
			"frame_ms_p90_uncalibrated": percentile(raw, 0.9),
			"calibration_ms_p10":        percentile(cal, 0.1),
			"calibration_ms_p50":        median(cal),
		},
	}
	if o.trace {
		for name, m := range ls.metrics(ratio(gc1-gc0, cpu1-cpu0)) {
			rep.Metrics[name] = m
		}
		for name, m := range serviceCountersAbsent() {
			rep.Metrics[name] = m
		}
		rep.samples["layers"] = ls.frames
	}
	return rep, nil
}

// serviceCountersAbsent is the service layers' counters on a workload that
// never calls them: zero requests, zero simulations, zero store traffic.
func serviceCountersAbsent() map[string]metric {
	return map[string]metric{
		"serve.admission_waiting_max": {0, "count"},
		"serve.rejected":              {0, "count"},
		"experiments.sims":            {0, "count"},
		"experiments.memo_ratio":      {0, "ratio"},
		"resultstore.hit_ratio":       {0, "ratio"},
		"resultstore.puts":            {0, "count"},
		"resultstore.corrupt":         {0, "count"},
	}
}
