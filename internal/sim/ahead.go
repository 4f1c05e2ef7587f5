// Render-ahead: the engine's one tile-acquisition path for live rendering,
// overlapping functional rendering with the timing replay.
//
// Each tile costs the engine two jobs with very different parallelization
// properties:
//
//   - Its *functional* rendering (raster.RenderTileInto, about three
//     quarters of a frame's host time): edge walking, attribute
//     interpolation, depth test, blending, texture-footprint generation. Its
//     output, raster.TileWork, is a pure function of (Scene, Prims, Lists,
//     tile id): the Renderer's on-chip Z/Color buffers are reset at every
//     tile, Frame Buffer writes of distinct tiles touch disjoint pixels, and
//     no other state is shared.
//   - Its *timing* replay (beginTile/processBatch/finishTile against the
//     per-core L1s, the shared L2 and the timed DRAM, under the scheduler's
//     decisions). Every quad batch mutates order-sensitive shared state, so
//     the replay is the global-time domain: it runs on one goroutine, in the
//     engine's reference event order, always.
//
// renderAhead lets helper goroutines render the tiles the scheduler is
// about to dispatch while the replay goroutine times the current ones. With
// zero helpers it is the serial engine: the replay renders every tile
// itself.
//
//   - Lookahead. After every NextTile the replay asks the scheduler's
//     sched.Peeker for each Raster Unit's next `window` tiles and publishes
//     them, furthest first, as the helpers' wish list. The farthest tiles go
//     first so the replay, which renders every dispatched tile no helper has
//     claimed, takes the near ones itself and rarely waits on a tile a
//     helper is still rendering. A scheduler without Peek gets no help.
//   - Ownership. A tile is claimed exactly once, under mu: by a helper
//     ahead of its dispatch, or by the replay at dispatch. The replay waits
//     only on a tile a helper is rendering at that moment; the slot's mutex,
//     held by the helper for the length of the render, is that wait.
//   - Memory. Every render, the replay's included, goes into one of the
//     pool's fixed slots, which return to the free list when the replay
//     finishes the tile. Helpers never take the last slot a Raster Unit
//     without one would need, so the replay never waits for a slot, and the
//     TileWork storage stays bounded however far ahead Peek reaches.
//
// Results are bit-identical to the serial engine for any helper count,
// window, pool size and any Peek answer: a TileWork is a pure function of
// its inputs, Frame Buffer writes of distinct tiles touch disjoint pixels,
// and the replay — the only order-dependent state — consumes tiles in the
// order NextTile hands them out, which render-ahead never changes. Peek only
// decides which tiles get rendered early: a wrong answer costs overlap,
// never correctness, provided every tile it names is dispatched in the
// frame (a tile rendered early but never dispatched would write pixels the
// serial engine leaves alone). Out-of-range ids, Rendering Elimination skips
// and tiles already claimed are ignored.
//
// Helpers are spawned on demand and exit as soon as nothing is claimable,
// so no goroutine ever idles waiting for work, and RunRaster joins them all
// before it returns: a frame is bounded pure compute, and cancellation
// stays a frame-boundary concern.
package sim

import (
	"sync"

	"repro/internal/raster"
	"repro/internal/sched"
	"repro/internal/tiling"
)

// aheadWindow is how many upcoming tiles per Raster Unit render-ahead asks
// the scheduler for. With helpers, the pool holds aheadWindow+1 slots per
// RU: the tile it is replaying and one for every tile of its lookahead, so
// a helper runs out of wished-for tiles before it runs out of slots (with
// one slot fewer per RU, most helper exits were for want of a slot,
// DESIGN.md §9). Larger windows measured slower: helpers then render tiles
// the replay reaches late, while nearer ones go unclaimed.
const aheadWindow = 4

// maxHelpers is the render-ahead helper count of an engine that has them.
// One helper was measured to pay on two CPUs; whether more help where more
// CPUs exist has not been measured, so Config.Workers does not buy more.
const maxHelpers = 1

// Tile claim states in renderAhead.state; a value s+1 > 0 means a helper
// claimed the tile into pool slot s.
const (
	tileFree  = 0  // unclaimed
	tileTaken = -1 // dispatched: the replay owns it
)

type renderAhead struct {
	window    int
	rus       int
	renderers []*raster.Renderer // one per helper
	pool      []raster.TileWork
	// slotMu[s] is held by the helper rendering into pool[s]; the replay
	// waits for the render by acquiring it.
	slotMu []sync.Mutex

	// Replay-goroutine state for the frame in flight, set by begin. pk is
	// nil when nothing is published: no helpers, or no Peek.
	in      FrameInput
	pk      sched.Peeker
	peeks   [][]int // per RU: its latest Peek answer, backed by peekBuf
	peekBuf []int

	wg sync.WaitGroup
	// helpFn is the method value help, built once: `go a.helpFn()` spawns a
	// helper without allocating, where `go a.help()` allocates a closure
	// for the receiver at every spawn.
	helpFn func()

	mu       sync.Mutex // guards everything below
	state    []int32    // per tile: tileFree, tileTaken or slot+1
	want     []int      // candidate tiles, furthest first
	free     []int      // free pool slots, used as a stack
	held     int        // Raster Units holding a slot
	idle     []*raster.Renderer
	running  int // helpers spawned and not yet exited
	starting int // helpers spawned that have not claimed yet
	stop     bool
	panicked any // first helper panic, re-raised on the replay goroutine
}

// newRenderAhead builds render-ahead for rus Raster Units with the given
// number of helper goroutines, asking for window tiles per RU and
// rendering into pool slots (pool >= rus).
func newRenderAhead(helpers, window, pool, rus int, grid tiling.Grid, filter raster.Filtering) *renderAhead {
	a := &renderAhead{
		window:  window,
		rus:     rus,
		pool:    make([]raster.TileWork, pool),
		slotMu:  make([]sync.Mutex, pool),
		peeks:   make([][]int, rus),
		peekBuf: make([]int, rus*window),
		state:   make([]int32, grid.NumTiles()),
		want:    make([]int, 0, rus*window),
		free:    make([]int, 0, pool),
		idle:    make([]*raster.Renderer, 0, helpers),
	}
	for i := 0; i < helpers; i++ {
		r := raster.NewRenderer(grid)
		r.SetFiltering(filter)
		a.renderers = append(a.renderers, r)
	}
	a.helpFn = a.help
	return a
}

// begin arms render-ahead for one frame and, with helpers, publishes the
// first windows so they start before the first dispatch.
func (a *renderAhead) begin(in FrameInput) {
	a.in, a.pk = in, nil
	if pk, ok := in.Scheduler.(sched.Peeker); ok && len(a.renderers) > 0 {
		a.pk = pk
	}
	a.mu.Lock()
	clear(a.state)
	a.free = a.free[:0]
	for s := len(a.pool) - 1; s >= 0; s-- {
		a.free = append(a.free, s)
	}
	a.want = a.want[:0]
	a.idle = a.idle[:copy(a.idle[:cap(a.idle)], a.renderers)]
	a.held, a.running, a.starting, a.stop, a.panicked = 0, 0, 0, false, nil
	a.mu.Unlock()
	a.publish()
}

// publish refreshes the helpers' wish list from every RU's Peek; the replay
// calls it after each NextTile, the only event that moves the lookahead.
func (a *renderAhead) publish() {
	if a.pk == nil {
		return
	}
	for ru := range a.peeks {
		a.peeks[ru] = a.pk.Peek(ru, a.peekBuf[ru*a.window:(ru+1)*a.window])
	}
	skip := a.in.Skip
	a.mu.Lock()
	a.want = a.want[:0]
	for d := a.window - 1; d >= 0; d-- {
		for _, p := range a.peeks {
			if d >= len(p) {
				continue
			}
			t := p[d]
			if t < 0 || t >= len(a.state) || (skip != nil && skip[t]) || a.state[t] != tileFree {
				continue
			}
			a.want = append(a.want, t)
		}
	}
	a.spawnLocked()
	a.mu.Unlock()
}

// spareLocked is how many free slots helpers may take: the rest are kept
// for the Raster Units that hold none, so the replay never waits for one.
func (a *renderAhead) spareLocked() int {
	return len(a.free) - (a.rus - a.held)
}

// spawnLocked starts helpers while claimable tiles, spare slots and idle
// renderers outnumber the helpers already on their way to a claim.
func (a *renderAhead) spawnLocked() {
	if a.stop {
		return
	}
	claimable := 0
	for _, t := range a.want {
		if a.state[t] == tileFree {
			claimable++
		}
	}
	n := min(claimable, a.spareLocked()) - a.starting
	n = min(n, len(a.renderers)-a.running)
	for ; n > 0; n-- {
		a.running++
		a.starting++
		a.wg.Add(1)
		go a.helpFn()
	}
}

// help is one helper: claim the first wished-for free tile, render it into
// a pool slot, repeat; exit when nothing is claimable.
func (a *renderAhead) help() {
	defer a.wg.Done()
	var r *raster.Renderer
	slot := -1
	defer func() {
		if p := recover(); p != nil {
			a.mu.Lock()
			if a.panicked == nil {
				a.panicked = p
			}
			a.stop = true
			a.mu.Unlock()
			if slot >= 0 {
				a.slotMu[slot].Unlock() // release a replay waiting on it
			}
		}
	}()
	for {
		var tile int
		tile, slot, r = a.claim(r)
		if tile < 0 {
			return
		}
		in := &a.in
		r.RenderTileInto(&a.pool[slot], in.Scene, in.Prims, in.Lists.Lists[tile], tile, in.FB)
		s := slot
		slot = -1
		a.slotMu[s].Unlock()
	}
}

// claim hands the helper holding r (nil on its first call) a tile and a
// locked pool slot, or tile -1 when it should exit.
func (a *renderAhead) claim(r *raster.Renderer) (tile, slot int, _ *raster.Renderer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r == nil {
		a.starting--
		r = a.idle[len(a.idle)-1]
		a.idle = a.idle[:len(a.idle)-1]
	}
	if !a.stop && a.spareLocked() > 0 {
		for _, t := range a.want {
			if a.state[t] != tileFree {
				continue
			}
			s := a.popLocked()
			a.state[t] = int32(s) + 1
			a.slotMu[s].Lock() // free slots are never held: does not block
			return t, s, r
		}
	}
	a.idle = append(a.idle, r)
	a.running--
	return -1, -1, r
}

// popLocked takes the most recently freed slot, whose buffers are the
// likeliest to be warm and large enough already.
func (a *renderAhead) popLocked() int {
	s := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return s
}

// take claims a dispatched tile for a Raster Unit holding no slot. It
// returns the slot the tile's work is in when a helper rendered it,
// waiting for a render still in progress, and otherwise a free slot the
// replay must render the tile into. A helper panic is re-raised here once
// every helper has exited.
func (a *renderAhead) take(tile int) (slot int, rendered bool) {
	a.mu.Lock()
	s := int(a.state[tile]) - 1
	a.state[tile] = tileTaken
	a.held++
	if s < 0 {
		s = a.popLocked() // spareLocked keeps one for every RU holding none
		a.mu.Unlock()
		return s, false
	}
	a.mu.Unlock()
	a.slotMu[s].Lock()
	a.slotMu[s].Unlock()
	a.mu.Lock()
	failed := a.panicked != nil
	a.mu.Unlock()
	if failed {
		a.finish()
	}
	return s, true
}

// release returns the slot a Raster Unit has finished with to the pool.
func (a *renderAhead) release(slot int) {
	a.mu.Lock()
	a.free = append(a.free, slot)
	a.held--
	a.spawnLocked()
	a.mu.Unlock()
}

// end stops and joins every helper; idempotent, so RunRaster can both defer
// it (no goroutine outlives a panicking frame) and call it at frame end.
func (a *renderAhead) end() {
	a.mu.Lock()
	a.stop = true
	a.mu.Unlock()
	a.wg.Wait()
	a.in, a.pk = FrameInput{}, nil
}

// finish ends the frame and re-raises a helper panic on the replay
// goroutine, as the serial engine's inline rendering would have.
func (a *renderAhead) finish() {
	a.end()
	if p := a.panicked; p != nil {
		a.panicked = nil
		panic(p)
	}
}
