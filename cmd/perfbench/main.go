// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three seeded workloads in-process and prints every metric by name and
// unit; the last line of standard output is the result object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see README.md for why each exists):
//
//	frames-mem  memory-intensive games, LIBRA 2 RU x 4 cores, RE off
//	frames-re   static-background puzzles + one scrolling game, RE on
//	serve-mix   /v1/run traffic against an in-process libraserve stack
//
// With --trace 0 the end-to-end metrics are measured with no tracing. With
// --trace 1 the run composes each frame from the layers' public functions,
// times a span around every call, and prints the per-layer metrics instead.
//
// Build and run it through run.sh from the repository root:
//
//	bash cmd/perfbench/run.sh --workload frames-mem --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// options are the command-line inputs of one benchmark run.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	cpuProfile string
	writeRefs  bool
}

// metric is one named measurement of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: the result plus the stamp fields
// that describe how it was measured.
type report struct {
	result
	// samples is the number of operations behind each percentile metric.
	samples map[string]int
	// tailPercentile is the percentile reported as latency_ms_tail.
	tailPercentile float64
	// extra holds diagnostics printed on their own line before the result
	// (service-path timings, generator lag) that are not result metrics.
	extra map[string]float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if opts.writeRefs {
		if err := writeRefs(ctx, refsPath, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var rep *report
	switch opts.workload {
	case "frames-mem", "frames-re":
		rep, err = runFrames(ctx, opts, refs)
	case "serve-mix":
		rep, err = runServeMix(ctx, opts, refs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	if !opts.trace {
		pruneTo(rep.Metrics, endToEndMetrics)
	} else {
		pruneTo(rep.Metrics, perLayerMetrics)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	if err := printReport(stdout, opts, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: frames-mem, frames-re or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = layer-traced run printing per-layer metrics")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the measured window to this file")
	fs.BoolVar(&o.writeRefs, "write-refs", false, "regenerate "+refsPath+" (reference hashes and game costs) and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	bad := func(format string, a ...any) (options, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return o, err
	}
	if o.writeRefs {
		return o, nil
	}
	switch o.workload {
	case "frames-mem", "frames-re", "serve-mix":
	default:
		return bad("unknown workload %q (want frames-mem, frames-re or serve-mix)", o.workload)
	}
	if trace != 0 && trace != 1 {
		return bad("--trace must be 0 or 1, got %d", trace)
	}
	if !(o.seconds > 0) || o.seconds > 120 {
		return bad("--seconds must be in (0, 120], got %v", o.seconds)
	}
	return o, nil
}

// Metric names and units, in print order. BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatches pins the two together).
var endToEndMetrics = []string{
	"latency_ms_p50", "latency_ms_tail", "throughput_per_s",
	"sim_cycles_per_frame", "dram_accesses_per_frame", "ok_ratio",
	"setup_s", "peak_rss_mb",
}

var perLayerMetrics = []string{
	"raster.render_ms", "raster.tiles", "raster.fragments", "raster.ns_per_fragment",
	"sim.replay_ms", "sim.replay_ns_per_kcycle", "sim.ru_util_min",
	"sim.tiles_skipped", "sim.skip_ratio",
	"tiling.signature_ms", "tiling.bin_ms", "tiling.binned_refs",
	"gpipe.run_ms", "gpipe.prims", "workloads.scene_ms",
	"mem.pb_write_ms", "sched.build_ms", "energy.estimate_ms",
	"mem.tex_l1_hit_ratio", "mem.l2_hit_ratio", "mem.avg_tex_latency_cycles",
	"dram.accesses", "dram.avg_latency_cycles", "dram.row_hit_ratio",
	"sched.temperature_ratio", "sched.supertile", "energy.frame_uj",
	"core.self_ms", "bench.trace_overhead_pct",
	"runtime.allocs_per_frame", "runtime.bytes_per_frame", "runtime.gc_cpu_fraction",
	"serve.admission_waiting_max", "serve.rejected",
	"experiments.sims", "experiments.memo_ratio",
	"resultstore.hit_ratio", "resultstore.puts", "resultstore.corrupt",
}

// pruneTo checks that every wanted metric was measured and drops the rest.
func pruneTo(m map[string]metric, want []string) {
	keep := make(map[string]bool, len(want))
	for _, name := range want {
		keep[name] = true
		if _, ok := m[name]; !ok {
			panic("perfbench: metric " + name + " was not measured")
		}
	}
	for name := range m {
		if !keep[name] {
			delete(m, name)
		}
	}
}

// printReport writes the stamp line, the diagnostics line (if any) and the
// result object, which is always the last line.
func printReport(w io.Writer, o options, rep *report) error {
	bw := bufio.NewWriter(w)
	stamp := map[string]any{
		"workload":        o.workload,
		"seed":            o.seed,
		"seconds":         o.seconds,
		"trace":           o.trace,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"num_cpu":         runtime.NumCPU(),
		"go_version":      runtime.Version(),
		"cpu_model":       cpuModel(),
		"samples":         rep.samples,
		"tail_percentile": rep.tailPercentile,
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return err
	}
	if len(rep.extra) > 0 {
		if err := enc.Encode(map[string]any{"diagnostics": rep.extra}); err != nil {
			return err
		}
	}
	if err := enc.Encode(rep.result); err != nil {
		return err
	}
	return bw.Flush()
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// startProfile starts a CPU profile when path is set; the returned stop
// function ends it and reports any write error.
func startProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// scratchDir creates an empty directory under .bench_build/tmp in the
// current (checkout) directory; the caller removes it.
func scratchDir(prefix string) (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// errDeadline reports a run that could not collect its minimum sample in
// the time a run is allowed.
var errDeadline = errors.New("minimum sample not reached before the run deadline")

// hardDeadline bounds any one run, so the process always exits well inside
// the three minutes a run may take.
const hardDeadline = 150 * time.Second
