package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkFrame-8   	      10	 119334021 ns/op	 9147977 B/op	   32155 allocs/op
BenchmarkFrame-8   	      10	 121873455 ns/op	 9148013 B/op	   32156 allocs/op
BenchmarkTileFetch 	 1000000	      1042 ns/op	  61.41 MB/s	       3.500 tiles/op
PASS
ok  	repro	3.021s
`

func TestParse(t *testing.T) {
	rec, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rec.GOOS != "linux" || rec.GOARCH != "amd64" || rec.CPU != "AMD EPYC 7B13" {
		t.Errorf("headers = %q/%q/%q", rec.GOOS, rec.GOARCH, rec.CPU)
	}
	if len(rec.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rec.Benchmarks))
	}
	b := rec.Benchmarks[0]
	if b.Name != "BenchmarkFrame" || b.Procs != 8 || b.Iterations != 10 || b.NsPerOp != 119334021 ||
		b.BytesPerOp != 9147977 || b.AllocsPerOp != 32155 {
		t.Errorf("first entry = %+v", b)
	}
	// Repeated -count runs stay as separate entries.
	if rec.Benchmarks[1].NsPerOp != 121873455 {
		t.Errorf("second entry = %+v", rec.Benchmarks[1])
	}
	c := rec.Benchmarks[2]
	if c.Name != "BenchmarkTileFetch" || c.Procs != 1 || c.MBPerSec != 61.41 || c.Metrics["tiles/op"] != 3.5 {
		t.Errorf("custom-metric entry = %+v", c)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	rec, err := Parse(strings.NewReader("PASS\nok  \trepro\t0.1s\nBenchmarkBroken-8 garbage\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise, want 0", len(rec.Benchmarks))
	}
}

func TestRecordJSONShape(t *testing.T) {
	rec, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	rec.SHA = "deadbeef"
	rec.Date = "2026-01-01T00:00:00Z"
	rec.GoVersion = "go1.24.0"
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.SHA != "deadbeef" || len(back.Benchmarks) != 3 {
		t.Errorf("round-trip = %+v", back)
	}
	for _, key := range []string{`"sha"`, `"date"`, `"num_cpu"`, `"procs"`, `"ns_per_op"`, `"allocs_per_op"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON missing %s: %s", key, raw)
		}
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	type split struct {
		name  string
		procs int
	}
	for in, want := range map[string]split{
		"BenchmarkFrame-8":   {"BenchmarkFrame", 8},
		"BenchmarkFrame":     {"BenchmarkFrame", 1},
		"BenchmarkA/sub-16":  {"BenchmarkA/sub", 16},
		"BenchmarkOdd-name":  {"BenchmarkOdd-name", 1},
		"BenchmarkFrame-8x8": {"BenchmarkFrame-8x8", 1},
	} {
		if name, procs := trimCPUSuffix(in); name != want.name || procs != want.procs {
			t.Errorf("trimCPUSuffix(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

func TestResolveSHA(t *testing.T) {
	if got := resolveSHA("abc123"); got != "abc123" {
		t.Errorf("explicit sha = %q", got)
	}
	t.Setenv("GITHUB_SHA", "envsha")
	if got := resolveSHA(""); got != "envsha" {
		t.Errorf("env sha = %q", got)
	}
	t.Setenv("GITHUB_SHA", "")
	// Falls through to git (this repo) or "unknown"; either way, non-empty.
	if got := resolveSHA(""); got == "" {
		t.Error("fallback sha is empty")
	}
}
