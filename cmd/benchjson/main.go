// Command benchjson converts `go test -bench` output (read from stdin) into
// the machine-readable benchmark record CI archives as BENCH_ci.json, so the
// repository accumulates a per-commit performance trajectory.
//
// Usage:
//
//	go test -bench . -benchmem -count 5 -run '^$' ./... | benchjson -o BENCH_ci.json
//	go test -bench . -benchmem -count 5 -run '^$' ./... | benchjson -check -baseline BENCH_ci.json
//	go test -bench . -benchmem -count 5 -run '^$' ./... | benchjson -check -update -baseline BENCH_ci.json
//
// Each benchmark line becomes one entry (repeated -count runs stay separate
// entries — downstream tooling aggregates) named without go test's
// -GOMAXPROCS suffix, which is kept as the entry's "procs" instead;
// goos/goarch/cpu headers, the host's CPU count and the commit SHA
// ($GITHUB_SHA, or -sha) annotate the file.
//
// -check compares the run against a committed baseline and exits non-zero on
// regression: allocs/op is a hard gate (deterministic, machine-independent),
// ns/op and B/op are soft thresholds that warn without failing (CI runners
// are noisy). -update rewrites the baseline from the current run instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark measurement line.
type Entry struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs"` // GOMAXPROCS of the run
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_sec,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Record is the whole BENCH_ci.json document.
type Record struct {
	SHA        string  `json:"sha"`
	Date       string  `json:"date"` // RFC 3339, UTC
	GoVersion  string  `json:"go"`
	GOOS       string  `json:"goos,omitempty"`
	GOARCH     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	NumCPU     int     `json:"num_cpu"` // logical CPUs of the recording host
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	var (
		out      = flag.String("o", "BENCH_ci.json", "output path (- for stdout)")
		sha      = flag.String("sha", "", "commit SHA to record (default: $GITHUB_SHA, then git rev-parse HEAD)")
		check    = flag.Bool("check", false, "compare stdin against -baseline instead of writing -o")
		baseline = flag.String("baseline", "BENCH_ci.json", "baseline file for -check")
		update   = flag.Bool("update", false, "with -check: rewrite -baseline from this run instead of comparing")
	)
	flag.Parse()

	rec, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(rec.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	rec.SHA = resolveSHA(*sha)
	rec.Date = time.Now().UTC().Format(time.RFC3339)
	rec.GoVersion = runtime.Version()
	rec.NumCPU = runtime.NumCPU()

	switch {
	case *check && *update:
		writeRecord(*baseline, rec)
	case *check:
		base, err := loadRecord(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: loading baseline: %v\n", err)
			os.Exit(1)
		}
		failures, warnings := Compare(base, rec)
		for _, w := range warnings {
			fmt.Fprintf(os.Stderr, "warn: %s\n", w)
		}
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) against %s (baseline sha %s)\n",
				len(failures), *baseline, base.SHA)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within baseline %s (%d warnings)\n",
			len(rec.Benchmarks), *baseline, len(warnings))
	default:
		writeRecord(*out, rec)
	}
}

// writeRecord marshals rec to path ("-" for stdout).
func writeRecord(path string, rec *Record) {
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if path == "-" {
		os.Stdout.Write(raw)
		return
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", path, len(rec.Benchmarks))
}

// loadRecord reads a BENCH_ci.json document.
func loadRecord(path string) (*Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

func resolveSHA(flagSHA string) string {
	if flagSHA != "" {
		return flagSHA
	}
	if env := os.Getenv("GITHUB_SHA"); env != "" {
		return env
	}
	if raw, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(raw))
	}
	return "unknown"
}

// Parse reads `go test -bench` output and collects benchmark lines and the
// goos/goarch/cpu headers. Non-benchmark lines (figure tables, PASS/ok) are
// ignored.
func Parse(r io.Reader) (*Record, error) {
	rec := &Record{Benchmarks: []Entry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rec.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseBenchLine(line); ok {
				rec.Benchmarks = append(rec.Benchmarks, e)
			}
		}
	}
	return rec, sc.Err()
}

// parseBenchLine decodes one line of the form
//
//	BenchmarkName-8  5  123456 ns/op  789 B/op  12 allocs/op  3.14 custom/metric
//
// into an Entry. Unknown units land in Metrics.
func parseBenchLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	name, procs := trimCPUSuffix(fields[0])
	e := Entry{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		case "MB/s":
			e.MBPerSec = v
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	if e.NsPerOp == 0 && e.Metrics == nil && e.BytesPerOp == 0 {
		return Entry{}, false
	}
	return e, true
}

// trimCPUSuffix splits the -GOMAXPROCS suffix go test appends to benchmark
// names off (BenchmarkFrame-8 → BenchmarkFrame, 8). go test omits the
// suffix when GOMAXPROCS is 1.
func trimCPUSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}
