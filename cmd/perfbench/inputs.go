package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	libra "repro"
	"repro/internal/workloads"
)

// Frame workload shape: experiments.DefaultParams' screen and L2 with the
// headline LIBRA configuration (2 Raster Units x 4 cores), serial engine.
const (
	frameRUs    = 2
	frameL2KB   = 1024
	frameWarmup = 2
	// memPassFrames and rePassFrames are the steady-state frames per game
	// in one pass of frames-mem and frames-re. A run repeats whole passes,
	// each from a fresh run of every game, so every run measures the same
	// frames whatever the host speed; only the number of passes changes.
	// (Frame cost moves with the animation, so a window cut by time alone
	// would weigh different frames on a faster or slower host.)
	memPassFrames = 12
	rePassFrames  = 60
)

var frameScreen = screen{640, 384}

// The frames-re game pools. The puzzle boards have static backgrounds, so
// about 2/3 of their tiles repeat frame to frame; the scrolling games skip
// none and pay for signatures with nothing back. Jet and FlB also scroll
// but cost about twice as much host time per frame as these three, so
// which one a seed drew would move the frame-time metrics by more than
// their bound.
var (
	puzzleGames    = []string{"AnB", "BeB", "CuT", "LiK"}
	scrollingGames = []string{"FrF", "GDL", "VeX"}
)

// Balanced draw of frames-mem game sets. A set qualifies when its mean host
// ms, simulated cycles and DRAM accesses per frame are each within
// balanceTol of the suite mean, the median of its games' host ms is within
// spreadTol of the suite median, and its slowest game's host ms (which sets
// the pooled p90) is within spreadTol of the suite's 80th percentile. That
// keeps the seed's choice of games from moving the metrics by more than a
// few percent.
const (
	balanceTol = 0.04
	spreadTol  = 0.06
)

// memGames returns the memory-intensive suite's games.
func memGames() []string {
	var gs []string
	for _, p := range workloads.MemoryIntensiveSuite() {
		gs = append(gs, p.Abbrev)
	}
	return gs
}

// passFrames returns the steady-state frames per game in one pass of a
// frame workload.
func passFrames(workload string) int {
	if workload == "frames-re" {
		return rePassFrames
	}
	return memPassFrames
}

// balancedMemSets returns every qualifying 4-game subset of the memory
// suite, each sorted, in lexicographic order.
func balancedMemSets(refs *refTable) ([][]string, error) {
	games := memGames()
	sort.Strings(games)
	costs := make([]gameCost, len(games))
	var ms []float64
	var all gameCost
	for i, g := range games {
		c, err := refs.cost(g, frameScreen)
		if err != nil {
			return nil, err
		}
		costs[i] = c
		ms = append(ms, c.hostMS)
		all.hostMS += c.hostMS / float64(len(games))
		all.cycles += c.cycles / float64(len(games))
		all.dram += c.dram / float64(len(games))
	}
	suiteMedian, suiteP80 := median(ms), percentile(ms, 0.8)
	within := func(v, ref, tol float64) bool { return math.Abs(v/ref-1) <= tol }
	var sets [][]string
	n := len(games)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				for d := c + 1; d < n; d++ {
					var m gameCost
					var setMS []float64
					for _, i := range []int{a, b, c, d} {
						m.hostMS += costs[i].hostMS / 4
						m.cycles += costs[i].cycles / 4
						m.dram += costs[i].dram / 4
						setMS = append(setMS, costs[i].hostMS)
					}
					if within(m.hostMS, all.hostMS, balanceTol) && within(m.cycles, all.cycles, balanceTol) &&
						within(m.dram, all.dram, balanceTol) && within(median(setMS), suiteMedian, spreadTol) &&
						within(slices.Max(setMS), suiteP80, spreadTol) {
						sets = append(sets, []string{games[a], games[b], games[c], games[d]})
					}
				}
			}
		}
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("no balanced frames-mem game set")
	}
	return sets, nil
}

// frameGamesFor expands a seed into the ordered games of a frame workload.
func frameGamesFor(workload string, seed int64, refs *refTable) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	var gs []string
	switch workload {
	case "frames-mem":
		sets, err := balancedMemSets(refs)
		if err != nil {
			return nil, err
		}
		gs = append(gs, sets[rng.Intn(len(sets))]...)
	case "frames-re":
		drop := rng.Intn(len(puzzleGames))
		for i, g := range puzzleGames {
			if i != drop {
				gs = append(gs, g)
			}
		}
		gs = append(gs, scrollingGames[rng.Intn(len(scrollingGames))])
	default:
		return nil, fmt.Errorf("not a frame workload: %q", workload)
	}
	rng.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	return gs, nil
}

// Service workload shape.
const (
	serveL2KB   = 256
	serveFrames = 4
	serveWarmup = 1
	// serveRate is the open loop's fixed arrival rate in requests per
	// second; serveMinRequests the least a run sends.
	serveRate        = 20.0
	serveMinRequests = 400
	// zipfExponent shapes key popularity: rank r gets weight
	// 1/r^zipfExponent. At 1.3, 400 requests touch 79 keys: 32 disk hits
	// and 47 misses. Flatter popularity touches more keys, and two
	// simulations then often hold both CPUs, queueing the memory hits
	// behind them, so the median latency swings with which misses overlap.
	zipfExponent = 1.3
)

var serveScreen = screen{320, 192}

// serveKey is one point of the request universe.
type serveKey struct {
	Game   string
	Policy libra.Policy
	RE     bool
}

// config returns the GPU configuration a request for k carries.
func (k serveKey) config() libra.Config {
	var cfg libra.Config
	if k.Policy == libra.PolicyLIBRA {
		cfg = libra.LIBRA(serveScreen.W, serveScreen.H, frameRUs)
	} else {
		cfg = libra.PTR(serveScreen.W, serveScreen.H, frameRUs)
	}
	cfg.L2KB = serveL2KB
	cfg.RenderElim = k.RE
	return cfg
}

// serveRequest is one request of the measured phase.
type serveRequest struct {
	due time.Duration // offset from the start of the measured phase
	key serveKey
}

// serveInputs is everything a seed generates for serve-mix.
type serveInputs struct {
	// ranked is the universe in popularity order (rank 0 most popular).
	ranked []serveKey
	// prepop is the quarter written to the store during set-up: the keys
	// the seeded order ranks most popular, as earlier traffic would have
	// left them.
	prepop []serveKey
	// requests is the measured phase in due order.
	requests []serveRequest
}

// serveUniverse is all 32 games x {zorder PTR, libra} x {RE off, on}.
func serveUniverse() []serveKey {
	var u []serveKey
	for _, p := range workloads.All() {
		for _, pol := range []libra.Policy{libra.PolicyZOrder, libra.PolicyLIBRA} {
			for _, re := range []bool{false, true} {
				u = append(u, serveKey{p.Abbrev, pol, re})
			}
		}
	}
	return u
}

// serveInputsFor expands a seed into serve-mix's inputs for a measured
// window of the given length.
//
// The popularity order is a seeded permutation, stratified by cost: the
// universe is split into four quartiles by the game's committed host cost
// and every run of four consecutive ranks holds one key of each quartile,
// in seeded order. Without that, which expensive keys a seed happened to
// rank high would swing the tail latency by more than its bound.
//
// The N = max(serveMinRequests, serveRate*seconds) requests follow that
// order's Zipf weights as a histogram rather than as N independent draws:
// each rank gets its share of N, rounded by largest remainder, and the
// whole list is shuffled. So every run of a given length requests the same
// number of distinct keys and misses on the same number; independent draws
// would leave that count, and with it the tail, to chance.
//
// Arrivals are a Poisson process conditioned on its count: N times drawn
// uniformly over N/serveRate seconds and sorted.
func serveInputsFor(seed int64, seconds float64, refs *refTable) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	u := serveUniverse()
	cost := make(map[serveKey]float64, len(u))
	for _, k := range u {
		c, err := refs.cost(k.Game, serveScreen)
		if err != nil {
			return nil, err
		}
		cost[k] = c.hostMS
	}
	sort.SliceStable(u, func(i, j int) bool { return cost[u[i]] < cost[u[j]] })
	const strata = 4
	per := len(u) / strata
	quart := make([][]serveKey, strata)
	for s := range quart {
		quart[s] = append([]serveKey(nil), u[s*per:(s+1)*per]...)
		rng.Shuffle(per, func(i, j int) { quart[s][i], quart[s][j] = quart[s][j], quart[s][i] })
	}
	in := &serveInputs{}
	for j := 0; j < per; j++ {
		for _, s := range rng.Perm(strata) {
			in.ranked = append(in.ranked, quart[s][j])
		}
	}
	in.prepop = append([]serveKey(nil), in.ranked[:len(in.ranked)/4]...)

	n := int(math.Ceil(serveRate * seconds))
	if n < serveMinRequests {
		n = serveMinRequests
	}
	var keys []serveKey
	for r, c := range zipfCounts(len(in.ranked), n) {
		for i := 0; i < c; i++ {
			keys = append(keys, in.ranked[r])
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	window := float64(n) / serveRate
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * window
	}
	sort.Float64s(dues)
	for i, d := range dues {
		in.requests = append(in.requests, serveRequest{
			due: time.Duration(d * float64(time.Second)),
			key: keys[i],
		})
	}
	return in, nil
}

// zipfCounts splits n requests over k ranks in proportion to
// 1/(r+1)^zipfExponent, rounded by largest remainder so the counts sum to
// n. Ranks whose share rounds to nothing get no request.
func zipfCounts(k, n int) []int {
	w := make([]float64, k)
	var total float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), zipfExponent)
		total += w[r]
	}
	counts := make([]int, k)
	rem := make([]float64, k)
	given := 0
	for r := range w {
		share := float64(n) * w[r] / total
		counts[r] = int(share)
		rem[r] = share - math.Floor(share)
		given += counts[r]
	}
	order := make([]int, k)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, r := range order[:n-given] {
		counts[r]++
	}
	return counts
}
