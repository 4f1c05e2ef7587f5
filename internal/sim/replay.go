// Epoch-parallel timing replay (DESIGN §15).
//
// The cycle-accurate replay is the engine's global-time synchronization
// domain: every quad batch consults the scheduler, the shared L2 and the
// timed DRAM, all order-sensitive. parallel.go parallelized the functional
// phase and left the replay serial; this file parallelizes the replay itself
// without giving up a single bit of determinism, by exploiting the one
// replay computation that is *not* order-sensitive across Raster Units: the
// private texture L1s.
//
// mem.ClassifyL1 splits AccessThroughL1 into an L1-local half (a pure
// function of the per-cache address sequence — cache.Cache is time-free) and
// a shared half (mem.ReplayThroughL1: telemetry, L2, DRAM, latencies) that
// replayFarm keeps on the single drain goroutine at the authoritative
// cycles. Classifier goroutines run the L1-local half ahead of the drain:
//
//   - One replayStream per Raster Unit holds the RU's dispatched tiles in
//     scheduler order. Config.ReplayWorkers is spread over the streams as
//     `shards` classifier goroutines each; shard k of an RU walks every tile
//     of the stream in order, reproduces the drain's core round-robin
//     (rr / QuadBlock % CoresPerRU, rr counting quads continuously across
//     the frame, as rasterUnit.core and coreQuads do), and classifies the
//     quads of the cores it owns (core % shards == k) against the RU's real
//     per-core L1s. Each L1 is touched by exactly one goroutine, in exactly
//     the per-cache order the serial engine would use, so its
//     hit/miss/victim outcomes — and its final statistics and contents —
//     are identical by construction.
//   - The drain consumes a tile's recorded outcomes on first touch
//     (processBatch waits until all shards finished the tile) and feeds them
//     to ReplayThroughL1 at the cycles its own clock dictates. Identical L1
//     outcomes at identical cycles produce identical L2/DRAM traffic,
//     latencies and telemetry, hence identical RU clocks, identical nextRU
//     interleaving, and a byte-identical FrameOutput.
//
// What bounds the lookahead — the "epoch" — differs by topology:
//
//   - RasterUnits > 1: the tile→RU assignment is decided by the drain's
//     timing (whichever RU's clock is lowest asks the scheduler next), so a
//     tile enters its stream only when the drain begins it. Classification
//     overlaps the tile's own SetupCycles window and the other RUs' batches.
//   - RasterUnits == 1: the scheduler call sequence is static (every call is
//     NextTile(0), and every policy is a precomputed per-frame queue), so
//     the drain may pre-pull up to Config.ReplayEpoch tiles of decisions
//     ahead of its clock and submit them for classification immediately.
//     The decision log is identical by construction — same calls, same
//     order — and TileAssigned telemetry is commutative counters by
//     contract, so pre-pulling is externally invisible.
//
// Epoch size therefore never affects results, only overlap: size 1 and
// whole-frame (∞) both reproduce the serial reference exactly, which the
// metamorphic tests pin.
//
// Ownership rules for the epoch buffers (the PR 6 allocation contract):
// every replayTile and its per-core outcome slices are farm-owned scratch,
// reset and refilled in place each frame, so steady-state frames allocate
// nothing. f.in is cleared at finish(), mirroring renderFarm, so the farm
// never retains a frame's transient scene references across frames.
package sim

import (
	"sync"

	"repro/internal/mem"
	"repro/internal/mem/cache"
)

// defaultReplayEpoch is the pre-pull window (in tiles) used when
// Config.ReplayEpoch is zero: deep enough to hide classification behind the
// drain on every profile, small enough to keep the decision pre-pull close
// to the drain's clock.
const defaultReplayEpoch = 8

// replayTile is one dispatched tile's classification record: the per-core L1
// outcome streams, in the exact per-core order the drain consumes them.
type replayTile struct {
	tile int
	// done counts classifier shards that finished this tile; the drain
	// consumes the outcomes once done reaches the shard count. Guarded by
	// the owning stream's mu.
	done int
	// outc[c] holds core c's outcomes in quad order. Shards own disjoint
	// cores, so the slices are written race-free; the done/mu handshake
	// publishes them to the drain.
	outc [][]mem.L1Outcome
}

// replayStream is one Raster Unit's ordered tile queue plus the L1s its
// classifiers drive. tiles[:n] are published; the backing array is sized
// once per frame before the classifiers start and never reallocated
// mid-frame, so &tiles[i] stays stable while goroutines hold it.
type replayStream struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tiles  []replayTile
	n      int
	closed bool
	ru     int
	texL1  []*cache.Cache
}

// replayFarm coordinates the classifier goroutines of one engine. All
// scratch persists across frames (PR 6 contract); begin/finish bracket one
// RunRaster.
type replayFarm struct {
	hier      *mem.Hierarchy
	streams   []replayStream
	shards    int // classifier goroutines per RU
	cores     int
	quadBlock int
	epoch     int
	prepull   bool // RasterUnits == 1: static scheduler sequence, pre-pull allowed

	// Per-frame state, reset by begin and cleared by finish.
	in       FrameInput
	win      int   // resolved pre-pull window for this frame
	pp       []int // pre-pulled scheduler decisions (1-RU mode)
	ppHead   int
	ppDone   bool
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any // first classifier panic, re-raised on the drain
}

// newReplayFarm builds the farm over the engine's Raster Units. The
// ReplayWorkers budget is spread evenly across RUs and clamped to the only
// useful shard range: at least one classifier per stream, at most one per
// core (cores are the unit of L1 confinement).
func newReplayFarm(cfg Config, hier *mem.Hierarchy, rus []*rasterUnit) *replayFarm {
	shards := (cfg.ReplayWorkers + cfg.RasterUnits - 1) / cfg.RasterUnits
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.CoresPerRU {
		shards = cfg.CoresPerRU
	}
	f := &replayFarm{
		hier:      hier,
		streams:   make([]replayStream, len(rus)),
		shards:    shards,
		cores:     cfg.CoresPerRU,
		quadBlock: cfg.QuadBlock,
		epoch:     cfg.ReplayEpoch,
		prepull:   cfg.RasterUnits == 1,
	}
	for i, ru := range rus {
		st := &f.streams[i]
		st.cond = sync.NewCond(&st.mu)
		st.ru = i
		st.texL1 = ru.texL1
	}
	return f
}

// begin arms the farm for one frame: size the per-stream tile arrays, reset
// the pre-pull queue, and start the classifier goroutines. Works (or
// WorksByRU) must already be populated — RunRaster forces the render farm on
// whenever the replay farm is active.
func (f *replayFarm) begin(in FrameInput) {
	f.in = in
	n := 0
	if in.WorksByRU != nil {
		if len(in.WorksByRU) > 0 {
			n = len(in.WorksByRU[0])
		}
	} else {
		n = len(in.Works)
	}
	f.pp = f.pp[:0]
	f.ppHead = 0
	f.ppDone = false
	win := f.epoch
	if win == 0 {
		win = defaultReplayEpoch
	}
	if win < 0 || win > n {
		win = n
	}
	if win < 1 {
		win = 1
	}
	f.win = win
	for i := range f.streams {
		st := &f.streams[i]
		st.mu.Lock()
		if cap(st.tiles) < n {
			st.tiles = make([]replayTile, n)
		}
		st.tiles = st.tiles[:n]
		st.n = 0
		st.closed = false
		st.mu.Unlock()
		for k := 0; k < f.shards; k++ {
			f.wg.Add(1)
			go f.classify(st, k)
		}
	}
}

// finish closes every stream, joins the classifiers, drops the frame's
// transient references and re-raises any classifier panic on the caller.
// RunRaster defers it, so the farm is quiescent before the frame returns.
func (f *replayFarm) finish() {
	for i := range f.streams {
		st := &f.streams[i]
		st.mu.Lock()
		st.closed = true
		st.cond.Broadcast()
		st.mu.Unlock()
	}
	f.wg.Wait()
	f.in = FrameInput{}
	if p := f.takePanic(); p != nil {
		panic(p)
	}
}

// submit publishes one dispatched (non-skipped) tile to an RU's stream. The
// entry and its per-core slices are reused scratch; initializing them under
// the mutex before n++ publishes them to the classifiers.
func (f *replayFarm) submit(ru, tile int) {
	st := &f.streams[ru]
	st.mu.Lock()
	t := &st.tiles[st.n]
	t.tile = tile
	t.done = 0
	if cap(t.outc) < f.cores {
		t.outc = make([][]mem.L1Outcome, f.cores)
	}
	t.outc = t.outc[:f.cores]
	for c := range t.outc {
		t.outc[c] = t.outc[c][:0]
	}
	st.n++
	st.cond.Broadcast()
	st.mu.Unlock()
}

// wait blocks until every shard has classified stream entry idx and returns
// it. A classifier panic is re-raised here so the drain cannot deadlock on a
// tile that will never complete.
func (f *replayFarm) wait(ru, idx int) *replayTile {
	st := &f.streams[ru]
	st.mu.Lock()
	t := &st.tiles[idx]
	for t.done < f.shards {
		if p := f.takePanic(); p != nil {
			st.mu.Unlock()
			panic(p)
		}
		st.cond.Wait()
	}
	st.mu.Unlock()
	return t
}

// nextTile is the drain's scheduler front in pre-pull mode (one RU): it tops
// the decision FIFO up to the epoch window — submitting non-skipped tiles
// for classification as they are pulled — and pops the head. The scheduler
// sees the exact call sequence the serial engine would issue (every call
// NextTile(0), same order, one terminal -1), so a recorded decision log is
// byte-identical.
func (f *replayFarm) nextTile(in FrameInput) int {
	for !f.ppDone && len(f.pp)-f.ppHead < f.win {
		t := in.Scheduler.NextTile(0)
		if t < 0 {
			f.ppDone = true
			break
		}
		f.pp = append(f.pp, t)
		if in.Skip == nil || !in.Skip[t] {
			f.submit(0, t)
		}
	}
	if f.ppHead >= len(f.pp) {
		return -1
	}
	t := f.pp[f.ppHead]
	f.ppHead++
	if f.ppHead == len(f.pp) {
		f.pp = f.pp[:0]
		f.ppHead = 0
	}
	return t
}

// classify is one shard's frame loop: walk the stream's tiles in order,
// classify the cores this shard owns, and publish completion. It runs for
// the duration of one frame and exits at close.
func (f *replayFarm) classify(st *replayStream, shard int) {
	defer f.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			f.poison(p)
		}
	}()
	rr := 0
	for idx := 0; ; idx++ {
		st.mu.Lock()
		for idx >= st.n && !st.closed {
			st.cond.Wait()
		}
		if idx >= st.n {
			st.mu.Unlock()
			return
		}
		t := &st.tiles[idx]
		st.mu.Unlock()
		rr = f.classifyTile(t, st, shard, rr)
		st.mu.Lock()
		t.done++
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// classifyTile runs the L1-local half of one tile's texture accesses for the
// cores this shard owns. rr is the shard's replica of the drain's continuous
// core round-robin; every quad advances it, owned or not, so the core
// assignment matches processBatch exactly.
//
//libra:hotpath
func (f *replayFarm) classifyTile(t *replayTile, st *replayStream, shard, rr int) int {
	work := &f.in.Works[t.tile]
	if f.in.WorksByRU != nil {
		work = &f.in.WorksByRU[st.ru][t.tile]
	}
	for _, q := range work.Quads {
		c := (rr / f.quadBlock) % f.cores
		rr++
		if c%f.shards != shard {
			continue
		}
		oc := t.outc[c]
		for _, line := range work.TexLines[q.TexStart : q.TexStart+uint32(q.TexCount)] {
			oc = append(oc, f.hier.ClassifyL1(st.texL1[c], line, false))
		}
		t.outc[c] = oc
	}
	return rr
}

// poison records the first classifier panic and wakes everyone blocked on a
// stream so the drain can re-raise it.
func (f *replayFarm) poison(p any) {
	f.panicMu.Lock()
	if f.panicked == nil {
		f.panicked = p
	}
	f.panicMu.Unlock()
	for i := range f.streams {
		st := &f.streams[i]
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// takePanic consumes the recorded classifier panic, if any.
func (f *replayFarm) takePanic() any {
	f.panicMu.Lock()
	p := f.panicked
	f.panicked = nil
	f.panicMu.Unlock()
	return p
}
