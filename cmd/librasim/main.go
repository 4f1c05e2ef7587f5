// Command librasim runs the LIBRA GPU simulator: single benchmark runs with
// any scheduler configuration, or any of the paper's experiments (figures
// and tables) end to end.
//
// Usage:
//
//	librasim -list                          # show the benchmark suite
//	librasim -game SuS -policy libra -rus 2 -frames 10
//	librasim -experiment fig11              # reproduce one figure
//	librasim -experiment all                # reproduce every figure/table
//	librasim -experiment fig11 -paper       # full FHD/25-frame scale (slow)
//	librasim -experiment all -result-dir ~/.libra  # persist/recall results
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	libra "repro"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list the benchmark suite and exit")
		game       = flag.String("game", "", "benchmark abbreviation for a single run (see -list)")
		policy     = flag.String("policy", "libra", "scheduler policy: zorder | static-supertile | temperature | libra")
		rus        = flag.Int("rus", 2, "raster units (single run)")
		cores      = flag.Int("cores", 4, "cores per raster unit (single run)")
		frames     = flag.Int("frames", 10, "frames to render")
		screenW    = flag.Int("w", 640, "screen width")
		screenH    = flag.Int("h", 384, "screen height")
		l2kb       = flag.Int("l2kb", 1024, "shared L2 size in KiB (0 = Table I 2MB)")
		experiment = flag.String("experiment", "", "experiment id (fig01..fig19b, table02, ranking) or 'all'")
		paper      = flag.Bool("paper", false, "run experiments at the paper's full FHD scale (slow)")
		format     = flag.String("format", "table", "experiment output format: table | markdown | json")
		jobs       = flag.Int("jobs", experiments.DefaultJobs(), "concurrent simulations for experiments (<=0 = NumCPU, or $LIBRA_JOBS)")
		simWorkers = flag.Int("sim-workers", experiments.DefaultSimWorkers(), "goroutines rendering each simulation (or $LIBRA_SIM_WORKERS): 1 runs the serial engine, 0 or above 1 adds one render-ahead helper where GOMAXPROCS allows; results are byte-identical for any value")
		renderElim = flag.Bool("render-elim", experiments.DefaultRenderElim(), "enable Rendering Elimination: skip tiles whose input signature matches the previous frame (or $LIBRA_RENDER_ELIM); pixels are unchanged, coherent frames get faster")
		resultDir  = flag.String("result-dir", experiments.DefaultResultDir(), "persistent result store directory for -experiment runs (or $LIBRA_RESULT_DIR; empty = store disabled)")
		heat       = flag.Bool("heatmap", false, "print the per-tile DRAM heatmap of the last frame (single run)")
		screenshot = flag.String("screenshot", "", "write the last rendered frame as a PPM image to this path (single run)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON (open in Perfetto) to this path; for -experiment, traces the first simulation")
		metricsOut = flag.String("metrics-out", "", "write the telemetry metrics registry as JSON to this path")
		jsonOut    = flag.Bool("json", false, "single run: print the canonical GameRun JSON (the exact bytes libraserve's /v1/run returns for the same request) instead of the frame table")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM aborts at the next frame boundary instead of killing
	// the process mid-frame.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *list:
		printSuite()
	case *experiment != "":
		runExperiments(ctx, *experiment, *paper, *format, *jobs, *simWorkers, *renderElim, *resultDir, *traceOut, *metricsOut)
	case *game != "":
		singleRun(ctx, *game, *policy, *rus, *cores, *frames, *screenW, *screenH, *l2kb, *simWorkers, *renderElim, *heat, *jsonOut, *screenshot, *traceOut, *metricsOut)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeTelemetry flushes a trace's Chrome-trace and metrics JSON to the
// requested paths (empty paths are skipped).
func writeTelemetry(tr *telemetry.Trace, traceOut, metricsOut string) {
	write := func(path string, export func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := export(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	write(traceOut, tr.ExportChromeTrace)
	write(metricsOut, tr.ExportMetrics)
}

func printSuite() {
	fmt.Printf("%-5s %-22s %-5s %-6s %s\n", "abbr", "name", "class", "mem?", "footprint")
	for _, b := range libra.Benchmarks() {
		mi := ""
		if b.MemoryIntensive {
			mi = "yes"
		}
		fmt.Printf("%-5s %-22s %-5s %-6s %.1f MB\n", b.Abbrev, b.Name, b.Class, mi, b.FootprintMB)
	}
}

func singleRun(ctx context.Context, game, policy string, rus, cores, frames, w, h, l2kb, simWorkers int, renderElim, heat, jsonOut bool, screenshot, traceOut, metricsOut string) {
	cfg := libra.DefaultConfig(w, h)
	cfg.RasterUnits = rus
	cfg.CoresPerRU = cores
	cfg.Policy = libra.Policy(policy)
	cfg.L2KB = l2kb
	cfg.SimWorkers = simWorkers
	cfg.RenderElim = renderElim
	run, err := libra.NewRun(cfg, game)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var tr *telemetry.Trace
	if traceOut != "" || metricsOut != "" {
		tr = telemetry.NewTrace(telemetry.TraceConfig{ClockHz: cfg.ClockHz})
		run.SetRecorder(tr)
	}
	if !jsonOut {
		fmt.Printf("%s on %dx%d, %d RU x %d cores, policy=%s\n", game, w, h, rus, cores, policy)
	}
	var results []libra.FrameResult
	for i := 0; i < frames; i++ {
		if cerr := ctx.Err(); cerr != nil {
			fmt.Fprintf(os.Stderr, "librasim: interrupted at frame boundary %d/%d\n", i, frames)
			os.Exit(130)
		}
		f := run.RenderFrame()
		results = append(results, f)
		if !jsonOut {
			fmt.Printf("frame %2d: %9d cycles  %6.1f fps  order=%-11s st=%-2d texHit=%.3f texLat=%5.1f dram=%7d energy=%7.0fuJ\n",
				f.Frame, f.TotalCycles, f.FPS, f.Order, f.Supertile, f.TexHitRatio, f.AvgTexLatency, f.DRAMAccesses, f.Energy.Total)
		}
	}
	warm := 2
	if warm >= frames {
		warm = 0
	}
	if jsonOut {
		// The canonical encoding: the same bytes libraserve's /v1/run
		// returns for this (game, config, frames, warmup) request — the CI
		// smoke test byte-diffs the two.
		gr := &experiments.GameRun{Game: game, Frames: results, Summary: libra.Summarize(results, warm)}
		if err := gr.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Println("summary:", libra.Summarize(results, warm))
	}
	if heat && len(results) > 0 {
		fmt.Println("per-tile DRAM heatmap (last frame):")
		fmt.Print(libra.HeatmapASCII(results[len(results)-1].TileDRAM))
	}
	if screenshot != "" {
		if err := os.WriteFile(screenshot, run.FramePPM(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", screenshot)
	}
	if tr != nil {
		writeTelemetry(tr, traceOut, metricsOut)
	}
}

func runExperiments(ctx context.Context, id string, paper bool, format string, jobs, simWorkers int, renderElim bool, resultDir, traceOut, metricsOut string) {
	p := experiments.DefaultParams()
	if paper {
		p = experiments.PaperParams()
	}
	p.SimWorkers = simWorkers
	p.RenderElim = renderElim
	r := experiments.NewRunner(p)
	r.SetJobs(jobs)
	r.SetContext(ctx)
	if resultDir != "" {
		st, err := resultstore.Open(resultDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r.SetStore(st)
		defer func() {
			c := st.Metrics()
			fmt.Fprintf(os.Stderr, "store: hits=%d misses=%d corrupt=%d sims=%d\n",
				c.Counter(resultstore.MetricHit).Value(),
				c.Counter(resultstore.MetricMiss).Value(),
				c.Counter(resultstore.MetricCorrupt).Value(),
				r.Sims())
		}()
	}
	// With -trace-out/-metrics-out, capture the first simulation the
	// experiment executes (one frame sequence keeps the trace readable).
	var tr *telemetry.Trace
	if traceOut != "" || metricsOut != "" {
		tr = telemetry.NewTrace(telemetry.TraceConfig{})
		var claimed atomic.Bool
		r.SetTelemetry(func(cfg libra.Config, game string) telemetry.Recorder {
			if claimed.CompareAndSwap(false, true) {
				return tr
			}
			return nil
		})
	}
	all := r.Registry()
	// The figure drivers use Run, which panics on failure — including a
	// Ctrl-C cancellation surfacing at a frame boundary. Convert that one
	// case back into a clean exit 130; real failures keep panicking.
	runOne := func(fn func() *experiments.Result) *experiments.Result {
		defer func() {
			if p := recover(); p != nil {
				if ctx.Err() != nil {
					fmt.Fprintln(os.Stderr, "librasim: interrupted; completed simulations are in the result store")
					os.Exit(130)
				}
				panic(p)
			}
		}()
		return fn()
	}
	render := func(res *experiments.Result) {
		switch format {
		case "markdown":
			fmt.Print(res.Markdown())
		case "json":
			raw, err := res.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(string(raw))
		default:
			fmt.Println(res.Table())
		}
	}
	if id == "all" {
		for _, k := range r.ExperimentIDs() {
			start := time.Now()
			render(runOne(all[k]))
			if format == "table" {
				fmt.Printf("   [%s took %v]\n\n", k, time.Since(start).Round(time.Millisecond))
			}
		}
	} else {
		fn, ok := all[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(1)
		}
		render(runOne(fn))
	}
	if tr != nil {
		writeTelemetry(tr, traceOut, metricsOut)
	}
}
