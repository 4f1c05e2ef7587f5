package main

import (
	"fmt"
	"sort"
	"strings"
)

// Tolerances for -check mode. AllocsPerOp is a deterministic count — any real
// regression reproduces exactly on every machine — so it gets a hard gate
// with only a small tolerance for scheduling-dependent paths (sync.Pool
// refills, map growth timing). Wall-clock and bytes are noisy on shared CI
// runners, so they get generous soft thresholds that warn without failing.
const (
	allocTolFrac  = 0.10 // hard: fail above baseline * 1.10 ...
	allocTolAbs   = 2.0  // ... with 2 allocs of absolute slack for tiny counts
	nsSoftFrac    = 0.50 // soft: warn above baseline * 1.50
	bytesSoftFrac = 0.25 // soft: warn above baseline * 1.25
)

// medians collapses repeated -count entries into one median measurement per
// benchmark name. The median is robust to the odd GC pause or noisy-neighbor
// spike that would poison a mean.
func medians(entries []Entry) map[string]Entry {
	byName := map[string][]Entry{}
	for _, e := range entries {
		byName[e.Name] = append(byName[e.Name], e)
	}
	out := make(map[string]Entry, len(byName))
	for name, es := range byName {
		med := Entry{Name: name, Iterations: es[0].Iterations}
		med.NsPerOp = medianOf(es, func(e Entry) float64 { return e.NsPerOp })
		med.BytesPerOp = medianOf(es, func(e Entry) float64 { return e.BytesPerOp })
		med.AllocsPerOp = medianOf(es, func(e Entry) float64 { return e.AllocsPerOp })
		out[name] = med
	}
	return out
}

func medianOf(es []Entry, get func(Entry) float64) float64 {
	vals := make([]float64, len(es))
	for i, e := range es {
		vals[i] = get(e)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Compare diffs current against baseline, returning hard failures (which
// must fail CI) and soft warnings (printed, non-fatal). Benchmarks present in
// the baseline but absent from the current run are hard failures: a gate that
// silently stops measuring is not a gate. Rows compare only against rows of
// the same GOMAXPROCS (go test -cpu), so a run at one and two CPUs gates
// each setting on its own; names carry a -procs suffix in the messages when
// more than one setting is present.
func Compare(baseline, current *Record) (failures, warnings []string) {
	procs := map[int]bool{}
	for _, rec := range []*Record{baseline, current} {
		for _, e := range rec.Benchmarks {
			procs[e.Procs] = true
		}
	}
	order := make([]int, 0, len(procs))
	for p := range procs {
		order = append(order, p)
	}
	sort.Ints(order)
	var fresh []string
	for _, p := range order {
		label := func(name string) string {
			if len(order) > 1 {
				return fmt.Sprintf("%s-%d", name, p)
			}
			return name
		}
		f, w, n := compareProcs(withProcs(baseline.Benchmarks, p), withProcs(current.Benchmarks, p), label)
		failures = append(failures, f...)
		warnings = append(warnings, w...)
		fresh = append(fresh, n...)
	}
	if len(fresh) > 0 {
		sort.Strings(fresh)
		warnings = append(warnings, fmt.Sprintf(
			"new benchmarks not in baseline (run -update to track): %s",
			strings.Join(fresh, ", ")))
	}
	return failures, warnings
}

// withProcs returns the entries recorded at GOMAXPROCS p.
func withProcs(entries []Entry, p int) []Entry {
	var out []Entry
	for _, e := range entries {
		if e.Procs == p {
			out = append(out, e)
		}
	}
	return out
}

// compareProcs is Compare over the rows of one GOMAXPROCS setting; fresh
// lists current benchmarks the baseline lacks.
func compareProcs(baseline, current []Entry, label func(string) string) (failures, warnings, fresh []string) {
	base := medians(baseline)
	cur := medians(current)

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"%s: present in baseline but missing from this run", label(name)))
			continue
		}
		if limit := b.AllocsPerOp*(1+allocTolFrac) + allocTolAbs; c.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %.0f exceeds baseline %.0f (limit %.0f)",
				label(name), c.AllocsPerOp, b.AllocsPerOp, limit))
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+nsSoftFrac) {
			warnings = append(warnings, fmt.Sprintf(
				"%s: ns/op %.0f is %.0f%% over baseline %.0f (soft threshold %.0f%%)",
				label(name), c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), b.NsPerOp, 100*nsSoftFrac))
		}
		if b.BytesPerOp > 0 && c.BytesPerOp > b.BytesPerOp*(1+bytesSoftFrac) {
			warnings = append(warnings, fmt.Sprintf(
				"%s: B/op %.0f is %.0f%% over baseline %.0f (soft threshold %.0f%%)",
				label(name), c.BytesPerOp, 100*(c.BytesPerOp/b.BytesPerOp-1), b.BytesPerOp, 100*bytesSoftFrac))
		}
	}

	for name := range cur {
		if _, ok := base[name]; !ok {
			fresh = append(fresh, label(name))
		}
	}
	return failures, warnings, fresh
}
