package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

func mustRefs(t *testing.T) *refTable {
	t.Helper()
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestSeedExpandsToTheSameInputs(t *testing.T) {
	refs := mustRefs(t)
	for _, w := range []string{"frames-mem", "frames-re"} {
		a, err := frameGamesFor(w, 42, refs)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := frameGamesFor(w, 42, refs)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 expanded to %v then %v", w, a, b)
		}
	}
	a, err := serveInputsFor(42, 20, refs)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := serveInputsFor(42, 20, refs)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve-mix: seed 42 expanded to two different input sets")
	}
}

func TestSeedsPickDifferentGamesAndMixes(t *testing.T) {
	refs := mustRefs(t)
	for _, w := range []string{"frames-mem", "frames-re"} {
		sets, orders := map[string]bool{}, map[string]bool{}
		for seed := int64(1); seed <= 20; seed++ {
			gs, err := frameGamesFor(w, seed, refs)
			if err != nil {
				t.Fatal(err)
			}
			if len(gs) != 4 {
				t.Fatalf("%s seed %d: %d games, want 4", w, seed, len(gs))
			}
			orders[key(gs)] = true
			sorted := slices.Clone(gs)
			sort.Strings(sorted)
			sets[key(sorted)] = true
		}
		if len(sets) < 3 || len(orders) < 10 {
			t.Errorf("%s: 20 seeds gave %d game sets and %d orders", w, len(sets), len(orders))
		}
	}
	a, _ := serveInputsFor(1, 20, refs)
	b, _ := serveInputsFor(2, 20, refs)
	if reflect.DeepEqual(a.ranked, b.ranked) || reflect.DeepEqual(a.requests, b.requests) {
		t.Error("serve-mix: seeds 1 and 2 produced the same popularity order or request mix")
	}
}

func key(gs []string) string {
	b, _ := json.Marshal(gs)
	return string(b)
}

func TestFramesREDrawsThreePuzzlesAndOneScrollingGame(t *testing.T) {
	refs := mustRefs(t)
	for seed := int64(0); seed < 30; seed++ {
		gs, _ := frameGamesFor("frames-re", seed, refs)
		puzzles, scrolling := 0, 0
		for _, g := range gs {
			switch {
			case slices.Contains(puzzleGames, g):
				puzzles++
			case slices.Contains(scrollingGames, g):
				scrolling++
			}
		}
		if puzzles != 3 || scrolling != 1 {
			t.Fatalf("seed %d drew %v", seed, gs)
		}
	}
}

func TestBalancedMemSetsStayBalanced(t *testing.T) {
	refs := mustRefs(t)
	sets, err := balancedMemSets(refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) < 16 {
		t.Fatalf("only %d balanced game sets; seeds would repeat too often", len(sets))
	}
	var suite float64
	for _, g := range memGames() {
		c, _ := refs.cost(g, frameScreen)
		suite += c.cycles / float64(len(memGames()))
	}
	for _, s := range sets {
		var m float64
		for _, g := range s {
			c, _ := refs.cost(g, frameScreen)
			m += c.cycles / 4
		}
		if math.Abs(m/suite-1) > balanceTol {
			t.Errorf("set %v: mean cycles %.0f vs suite %.0f", s, m, suite)
		}
	}
}

func TestServeInputsShape(t *testing.T) {
	refs := mustRefs(t)
	in, err := serveInputsFor(7, 5, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ranked) != 128 || len(in.prepop) != 32 {
		t.Fatalf("universe %d keys, pre-populated %d; want 128 and 32", len(in.ranked), len(in.prepop))
	}
	if !reflect.DeepEqual(in.prepop, in.ranked[:32]) {
		t.Error("pre-populated quarter is not the most popular quarter")
	}
	seen := map[serveKey]bool{}
	for _, k := range in.ranked {
		if seen[k] {
			t.Fatalf("key %+v ranked twice", k)
		}
		seen[k] = true
	}
	if n := len(in.requests); n != serveMinRequests {
		t.Fatalf("5 s window sent %d requests, want the %d minimum", n, serveMinRequests)
	}
	window := time.Duration(float64(serveMinRequests) / serveRate * float64(time.Second))
	for i, r := range in.requests {
		if r.due < 0 || r.due > window || (i > 0 && r.due < in.requests[i-1].due) {
			t.Fatalf("request %d due at %v: outside [0, %v] or out of order", i, r.due, window)
		}
	}
	long, _ := serveInputsFor(7, 30, refs)
	if len(long.requests) != 600 {
		t.Errorf("30 s window sent %d requests, want 600", len(long.requests))
	}
}

func TestServePopularityIsStratifiedByCost(t *testing.T) {
	refs := mustRefs(t)
	in, _ := serveInputsFor(3, 20, refs)
	var costs []float64
	for _, k := range in.ranked {
		c, _ := refs.cost(k.Game, serveScreen)
		costs = append(costs, c.hostMS)
	}
	sorted := slices.Clone(costs)
	sort.Float64s(sorted)
	// Every block of four consecutive ranks holds one key per cost
	// quartile, so no block is all cheap or all expensive.
	for b := 0; b+4 <= len(costs); b += 4 {
		lo, hi := slices.Min(costs[b:b+4]), slices.Max(costs[b:b+4])
		if lo > sorted[len(sorted)/4] || hi < sorted[3*len(sorted)/4-1] {
			t.Fatalf("ranks %d..%d span cost %.1f..%.1f: not one key per quartile", b, b+3, lo, hi)
		}
	}
}

func TestRefsCoverEveryWorkloadInput(t *testing.T) {
	refs := mustRefs(t)
	for _, j := range refJobs() {
		if n := len(refs.hashes[refKey{j.game, j.scr}]); n != j.frames {
			t.Errorf("%s %v: %d reference frames, want %d", j.game, j.scr, n, j.frames)
		}
		if _, err := refs.cost(j.game, j.scr); err != nil {
			t.Error(err)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got, want := names(b.Workloads), []string{"frames-mem", "frames-re", "serve-mix"}; !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", got, want)
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, code prints %v", got, endToEndMetrics)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, code prints %v", got, perLayerMetrics)
	}
}

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(128, 400)
	sum, touched := 0, 0
	for r, n := range c {
		if r > 0 && n > c[r-1] {
			t.Fatalf("rank %d gets %d > rank %d's %d", r, n, r-1, c[r-1])
		}
		if n > 0 {
			touched++
		}
		sum += n
	}
	if sum != 400 {
		t.Fatalf("counts sum to %d, want 400", sum)
	}
	// The pre-populated quarter must all be requested, and some misses
	// must remain beyond it.
	if touched < 48 || c[31] == 0 {
		t.Errorf("400 requests touch %d keys (rank 31 gets %d)", touched, c[31])
	}
}
