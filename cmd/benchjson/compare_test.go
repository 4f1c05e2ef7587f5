package main

import (
	"strings"
	"testing"
)

// fixture builds a Record from raw `go test -bench` output.
func fixture(t *testing.T, out string) *Record {
	t.Helper()
	rec, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

const baselineOutput = `goos: linux
goarch: amd64
BenchmarkFrame-8            	      10	 100000000 ns/op	   50000 B/op	     130 allocs/op
BenchmarkFrame-8            	      10	 110000000 ns/op	   52000 B/op	     132 allocs/op
BenchmarkFrame-8            	      10	 105000000 ns/op	   51000 B/op	     131 allocs/op
BenchmarkFrameWorkers/workers=2-8	      10	  60000000 ns/op	   60000 B/op	     200 allocs/op
PASS
`

func TestCompareClean(t *testing.T) {
	base := fixture(t, baselineOutput)
	cur := fixture(t, baselineOutput)
	failures, warnings := Compare(base, cur)
	if len(failures) != 0 || len(warnings) != 0 {
		t.Errorf("self-compare: failures=%v warnings=%v", failures, warnings)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base := fixture(t, baselineOutput)
	// 131 -> 200 median allocs: above 131*1.10+2.
	cur := fixture(t, `BenchmarkFrame-8 10 100000000 ns/op 50000 B/op 200 allocs/op
BenchmarkFrameWorkers/workers=2-8 10 60000000 ns/op 60000 B/op 200 allocs/op
`)
	failures, _ := Compare(base, cur)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Errorf("failures = %v, want one allocs/op regression", failures)
	}
}

func TestCompareAllocWithinToleranceOK(t *testing.T) {
	base := fixture(t, baselineOutput)
	// 131 -> 140 median allocs: under the 10% + 2 absolute tolerance (146).
	cur := fixture(t, `BenchmarkFrame-8 10 100000000 ns/op 50000 B/op 140 allocs/op
BenchmarkFrameWorkers/workers=2-8 10 60000000 ns/op 60000 B/op 200 allocs/op
`)
	failures, _ := Compare(base, cur)
	if len(failures) != 0 {
		t.Errorf("failures = %v, want none within tolerance", failures)
	}
}

func TestCompareTimeAndBytesAreSoft(t *testing.T) {
	base := fixture(t, baselineOutput)
	// 2x the time and 1.5x the bytes: warnings, not failures.
	cur := fixture(t, `BenchmarkFrame-8 10 210000000 ns/op 80000 B/op 131 allocs/op
BenchmarkFrameWorkers/workers=2-8 10 60000000 ns/op 60000 B/op 200 allocs/op
`)
	failures, warnings := Compare(base, cur)
	if len(failures) != 0 {
		t.Errorf("soft metrics must not fail: %v", failures)
	}
	if len(warnings) != 2 {
		t.Errorf("warnings = %v, want ns/op and B/op", warnings)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := fixture(t, baselineOutput)
	cur := fixture(t, `BenchmarkFrame-8 10 100000000 ns/op 50000 B/op 131 allocs/op
`)
	failures, _ := Compare(base, cur)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Errorf("failures = %v, want missing-benchmark failure", failures)
	}
}

func TestCompareNewBenchmarkWarns(t *testing.T) {
	base := fixture(t, baselineOutput)
	cur := fixture(t, baselineOutput+`BenchmarkNovel-8 100 5000 ns/op 100 B/op 3 allocs/op
`)
	failures, warnings := Compare(base, cur)
	if len(failures) != 0 {
		t.Errorf("new benchmark must not fail: %v", failures)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "BenchmarkNovel") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v, want new-benchmark notice", warnings)
	}
}

func TestMediansCollapseRepeatedRuns(t *testing.T) {
	rec := fixture(t, baselineOutput)
	med := medians(rec.Benchmarks)
	frame, ok := med["BenchmarkFrame"]
	if !ok {
		t.Fatalf("medians = %v, missing BenchmarkFrame", med)
	}
	if frame.NsPerOp != 105000000 || frame.AllocsPerOp != 131 || frame.BytesPerOp != 51000 {
		t.Errorf("median entry = %+v", frame)
	}
	if _, ok := med["BenchmarkFrameWorkers/workers=2"]; !ok {
		t.Errorf("medians missing sub-benchmark entry: %v", med)
	}
}

func TestMedianEvenCount(t *testing.T) {
	rec := fixture(t, `BenchmarkX 1 10 ns/op 0 B/op 4 allocs/op
BenchmarkX 1 20 ns/op 0 B/op 6 allocs/op
`)
	med := medians(rec.Benchmarks)
	if x := med["BenchmarkX"]; x.NsPerOp != 15 || x.AllocsPerOp != 5 {
		t.Errorf("even-count median = %+v", x)
	}
}

// TestCompareGatesEachProcsSetting: rows of a -cpu 1,2 run compare only
// against baseline rows of the same GOMAXPROCS, so a regression at one
// setting is neither masked nor blamed on the other.
func TestCompareGatesEachProcsSetting(t *testing.T) {
	base := fixture(t, `BenchmarkFrame 10 100000000 ns/op 50000 B/op 30 allocs/op
BenchmarkFrame-2 10 60000000 ns/op 50000 B/op 45 allocs/op
`)
	cur := fixture(t, `BenchmarkFrame 10 100000000 ns/op 50000 B/op 30 allocs/op
BenchmarkFrame-2 10 60000000 ns/op 50000 B/op 60 allocs/op
`)
	failures, _ := Compare(base, cur)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "BenchmarkFrame-2:") {
		t.Errorf("failures = %v, want one allocs/op regression at BenchmarkFrame-2", failures)
	}
	// Baseline at two CPUs only: the new one-CPU rows are fresh, not
	// compared against the two-CPU median.
	base = fixture(t, "BenchmarkFrame-2 10 60000000 ns/op 50000 B/op 45 allocs/op\n")
	failures, warnings := Compare(base, cur)
	if len(failures) != 1 || !strings.Contains(warnings[len(warnings)-1], "BenchmarkFrame-1") {
		t.Errorf("failures = %v warnings = %v, want the -2 regression and a fresh BenchmarkFrame-1", failures, warnings)
	}
}
