package sched

// Ablation schedulers: alternatives evaluated against LIBRA's hot/cold
// dispatch to isolate where its benefit comes from. None of these are part
// of the paper's proposal; they correspond to related-work orders (Hilbert —
// DTexL; reverse-frame — Boustrophedonic Frames) and controls (random,
// round-robin hot/cold without ranking).

import (
	"math/rand"

	"repro/internal/tiling"
)

// NewHilbertQueue dispatches tiles along a Hilbert curve (locality-focused
// control; no temperature awareness).
func NewHilbertQueue(grid tiling.Grid) *SingleQueue {
	return NewSingleQueue(grid.HilbertTraversal(), "hilbert")
}

// NewReverseQueue dispatches tiles in the reverse of the Z-order traversal —
// the Boustrophedonic-Frames idea of starting each frame where the previous
// one ended, approximated per frame by alternating direction.
func NewReverseQueue(grid tiling.Grid, frame int) *SingleQueue {
	order := grid.Traversal(tiling.OrderMorton)
	if frame%2 == 1 {
		rev := make([]int, len(order))
		for i, t := range order {
			rev[len(order)-1-i] = t
		}
		order = rev
	}
	return NewSingleQueue(order, "reverse")
}

// NewRandomQueue dispatches tiles in a seeded random order — the
// worst-locality control that isolates how much tile adjacency matters.
func NewRandomQueue(grid tiling.Grid, seed int64) *SingleQueue {
	order := grid.Traversal(tiling.OrderMorton)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return NewSingleQueue(order, "random")
}

// AlternatingTemperature is a ranking ablation: supertiles ranked by
// temperature but dispatched alternately (hottest, coldest, 2nd hottest,
// 2nd coldest, …) from a single shared queue instead of dedicating RU 0 to
// the hot end. Isolates the value of the dedicated hot Raster Unit.
type AlternatingTemperature struct {
	super   tiling.SupertileGrid
	queue   []int
	next    int
	pending [][]int
}

// NewAlternatingTemperature interleaves the hot and cold ends of the ranking
// into one shared dispatch queue.
func NewAlternatingTemperature(super tiling.SupertileGrid, ranked []int, numRUs int) *AlternatingTemperature {
	queue := make([]int, 0, len(ranked))
	lo, hi := 0, len(ranked)-1
	for lo <= hi {
		queue = append(queue, ranked[lo])
		lo++
		if lo <= hi {
			queue = append(queue, ranked[hi])
			hi--
		}
	}
	return &AlternatingTemperature{super: super, queue: queue, pending: make([][]int, numRUs)}
}

// NextTile implements Scheduler.
func (a *AlternatingTemperature) NextTile(ru int) int {
	if len(a.pending[ru]) == 0 {
		if a.next >= len(a.queue) {
			return -1
		}
		a.pending[ru] = a.super.TilesOf(a.queue[a.next])
		a.next++
	}
	t := a.pending[ru][0]
	a.pending[ru] = a.pending[ru][1:]
	return t
}

// Peek implements Peeker.
func (a *AlternatingTemperature) Peek(ru int, dst []int) []int {
	return peekTiles(a.super, a.pending[ru], dst, func(i int) int {
		if a.next+i >= len(a.queue) {
			return -1
		}
		return a.queue[a.next+i]
	})
}

// Name implements Scheduler.
func (a *AlternatingTemperature) Name() string { return "alt-temperature" }
