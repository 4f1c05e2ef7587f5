package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/raster"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tiling"
)

// aheadGrid is large enough (8×4 tiles) for lookahead windows to matter.
var aheadGrid = tiling.NewGrid(256, 128)

// aheadShape is one render-ahead configuration under test.
type aheadShape struct {
	helpers, window, spare int
}

func (s aheadShape) String() string {
	return fmt.Sprintf("helpers=%d/window=%d/spare=%d", s.helpers, s.window, s.spare)
}

// aheadShapes covers the default shape, the smallest window and pool, and
// more helpers than a 2-CPU host would get over a wide window and a single
// spare slot. The zero-helper serial engine is the reference they match.
var aheadShapes = []aheadShape{
	{1, aheadWindow, 3 * (aheadWindow - 1)},
	{1, 1, 1},
	{3, 2 * aheadWindow, 1},
}

// raceDetector reports a -race build (race_test.go).
var raceDetector bool

// aheadMatrix is the scheduler × RU-count × skip × shape matrix the
// equivalence tests walk. Under -short (the stress lane) or -race it keeps
// its most concurrent corner: the hot/cold scheduler on two RUs with
// skips, under the default shape and three helpers.
func aheadMatrix(rus []int) (map[string]func(int) sched.Scheduler, []int, [][]bool, []aheadShape) {
	scheds := aheadSchedulers()
	if testing.Short() || raceDetector {
		return map[string]func(int) sched.Scheduler{"temperature": scheds["temperature"]},
			[]int{2}, [][]bool{reSkip()}, []aheadShape{aheadShapes[0], aheadShapes[2]}
	}
	return scheds, rus, [][]bool{nil, reSkip()}, aheadShapes
}

// aheadRun is everything observable about a run of frames.
type aheadRun struct {
	outs  []FrameOutput
	logs  [][]sched.Decision
	works []raster.TileWork // every OnTileWork trace, cloned, in order
	tt    []*stats.TileTable
	hash  []uint64
}

// runAhead renders frames frames of the test scene on one engine with the
// given render-ahead shape, building each frame's scheduler with mk. skip,
// when non-nil, is the Rendering Elimination mask of frames after the
// first.
func runAhead(t *testing.T, rus int, shape aheadShape, mk func(rus int) sched.Scheduler, skip []bool, frames int) aheadRun {
	t.Helper()
	sc, prims, lists := testFrame(t, aheadGrid)
	eng := NewEngine(smallCfg(rus), aheadGrid, testHier())
	eng.setRenderAhead(shape.helpers, shape.window, shape.spare)
	fb := raster.NewFrameBuffer(aheadGrid.ScreenW, aheadGrid.ScreenH)
	var r aheadRun
	for f := 0; f < frames; f++ {
		var log []sched.Decision
		tt := stats.NewTileTable(aheadGrid.TilesX, aheadGrid.TilesY)
		in := FrameInput{
			Scene: sc, Prims: prims, Lists: lists, FB: fb,
			Scheduler:  sched.Record(mk(rus), &log),
			TileStats:  tt,
			OnTileWork: func(w raster.TileWork) { r.works = append(r.works, w.Clone()) },
			StartCycle: int64(f) * 1_000_000,
		}
		if f > 0 {
			in.Skip = skip
		}
		out := eng.RunRaster(in)
		out.PerRU = append([]RUStats(nil), out.PerRU...)
		r.outs = append(r.outs, out)
		r.logs = append(r.logs, log)
		r.tt = append(r.tt, tt)
		r.hash = append(r.hash, fb.Hash())
	}
	return r
}

// aheadSchedulers are the production schedulers with Peek.
func aheadSchedulers() map[string]func(rus int) sched.Scheduler {
	super := tiling.NewSupertileGrid(aheadGrid, 2)
	prev := stats.NewTileTable(aheadGrid.TilesX, aheadGrid.TilesY)
	for i := range prev.DRAMAccesses {
		prev.DRAMAccesses[i] = uint32((i * 37) % 11)
		prev.Instructions[i] = uint64(1 + i%5)
	}
	ranked := sched.RankSupertiles(super, prev)
	return map[string]func(int) sched.Scheduler{
		"zorder":    func(int) sched.Scheduler { return sched.NewZOrderQueue(aheadGrid) },
		"random":    func(int) sched.Scheduler { return sched.NewRandomQueue(aheadGrid, 7) },
		"supertile": func(rus int) sched.Scheduler { return sched.NewStaticSupertileQueue(super, rus) },
		"temperature": func(rus int) sched.Scheduler {
			return sched.NewTemperature(super, ranked, rus)
		},
		"alt-temperature": func(rus int) sched.Scheduler {
			return sched.NewAlternatingTemperature(super, ranked, rus)
		},
	}
}

// requireSameRun fails unless two runs are indistinguishable.
func requireSameRun(t *testing.T, ref, got aheadRun) {
	t.Helper()
	if !reflect.DeepEqual(ref.logs, got.logs) {
		t.Fatal("scheduler decision logs diverge from the serial engine")
	}
	if !reflect.DeepEqual(ref.outs, got.outs) {
		t.Fatalf("FrameOutput diverges:\nserial: %+v\ngot:    %+v", ref.outs, got.outs)
	}
	if !reflect.DeepEqual(ref.tt, got.tt) {
		t.Fatal("per-tile statistics diverge")
	}
	if !reflect.DeepEqual(ref.works, got.works) {
		t.Fatal("OnTileWork traces diverge")
	}
	if !reflect.DeepEqual(ref.hash, got.hash) {
		t.Fatalf("frame hashes diverge: serial %x got %x", ref.hash, got.hash)
	}
}

// reSkip marks every third tile as a Rendering Elimination hit.
func reSkip() []bool {
	skip := make([]bool, aheadGrid.NumTiles())
	for i := range skip {
		skip[i] = i%3 == 1
	}
	return skip
}

// TestRenderAheadEquivalence renders two frames through every scheduler
// with Peek, on 1–3 Raster Units, with and without Rendering Elimination
// skips, under every render-ahead shape, and requires each run to be
// indistinguishable from the zero-helper serial engine.
func TestRenderAheadEquivalence(t *testing.T) {
	scheds, ruCounts, skips, shapes := aheadMatrix([]int{1, 2, 3})
	for name, mk := range scheds {
		for _, rus := range ruCounts {
			for _, skip := range skips {
				ref := runAhead(t, rus, aheadShape{}, mk, skip, 2)
				for _, shape := range shapes {
					t.Run(fmt.Sprintf("%s/rus=%d/skip=%t/%s", name, rus, skip != nil, shape), func(t *testing.T) {
						requireSameRun(t, ref, runAhead(t, rus, shape, mk, skip, 2))
					})
				}
			}
		}
	}
}

// noPeek hides a scheduler's Peek.
type noPeek struct{ s sched.Scheduler }

func (n noPeek) NextTile(ru int) int { return n.s.NextTile(ru) }
func (n noPeek) Name() string        { return n.s.Name() }

// liarPeek answers Peek with garbage: out-of-range and negative ids,
// duplicates, tiles already dispatched, Rendering Elimination skips and
// random valid tiles, mixed with part of the true answer.
type liarPeek struct {
	s    sched.Scheduler
	rng  *rand.Rand
	skip []bool
	past []int
}

func (l *liarPeek) NextTile(ru int) int {
	t := l.s.NextTile(ru)
	if t >= 0 {
		l.past = append(l.past, t)
	}
	return t
}

func (l *liarPeek) Name() string { return "liar" }

func (l *liarPeek) Peek(ru int, dst []int) []int {
	n := aheadGrid.NumTiles()
	truth := l.s.(sched.Peeker).Peek(ru, make([]int, len(dst)))
	out := dst[:0]
	for len(out) < len(dst) {
		switch l.rng.Intn(7) {
		case 0:
			out = append(out, n+l.rng.Intn(5))
		case 1:
			out = append(out, -1-l.rng.Intn(5))
		case 2:
			if len(out) > 0 {
				out = append(out, out[len(out)-1])
			}
		case 3:
			if len(l.past) > 0 {
				out = append(out, l.past[l.rng.Intn(len(l.past))])
			}
		case 4:
			for i, s := range l.skip {
				if s && l.rng.Intn(3) == 0 {
					out = append(out, i)
					break
				}
			}
		case 5:
			out = append(out, l.rng.Intn(n))
		default:
			if len(truth) > 0 {
				out = append(out, truth[l.rng.Intn(len(truth))])
			}
		}
	}
	return out
}

// TestRenderAheadAdversarialPeek requires results identical to the serial
// engine when Peek lies and when the scheduler has no Peek at all: the
// lookahead may only ever change which tiles render early.
func TestRenderAheadAdversarialPeek(t *testing.T) {
	scheds, ruCounts, skips, shapes := aheadMatrix([]int{2})
	for name, mk := range scheds {
		for _, rus := range ruCounts {
			for _, skip := range skips {
				ref := runAhead(t, rus, aheadShape{}, mk, skip, 2)
				for _, shape := range shapes {
					t.Run(fmt.Sprintf("%s/rus=%d/skip=%t/%s", name, rus, skip != nil, shape), func(t *testing.T) {
						seed := int64(0)
						liar := func(rus int) sched.Scheduler {
							seed++
							return &liarPeek{s: mk(rus), rng: rand.New(rand.NewSource(seed)), skip: skip}
						}
						requireSameRun(t, ref, runAhead(t, rus, shape, liar, skip, 2))
						hidden := func(rus int) sched.Scheduler { return noPeek{mk(rus)} }
						requireSameRun(t, ref, runAhead(t, rus, shape, hidden, skip, 2))
					})
				}
			}
		}
	}
}

// gatedQueue dispatches a fixed order and answers Peek with a fixed list,
// but holds its first NextTile until render-ahead has handed tile `gate` to
// a helper, so the test knows a helper — not the replay — renders it.
type gatedQueue struct {
	*sched.SingleQueue
	peek []int
	eng  *Engine
	gate int
	t    *testing.T
}

func (g *gatedQueue) NextTile(ru int) int {
	if g.gate >= 0 {
		waitClaimed(g.t, g.eng, g.gate)
		g.gate = -1
	}
	return g.SingleQueue.NextTile(ru)
}

func (g *gatedQueue) Peek(_ int, dst []int) []int { return dst[:copy(dst, g.peek)] }

// waitClaimed yields until a helper has claimed tile (any tile when tile
// is negative).
func waitClaimed(t *testing.T, eng *Engine, tile int) {
	t.Helper()
	a := eng.ahead
	claimed := func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		if tile >= 0 {
			return a.state[tile] > 0
		}
		for _, s := range a.state {
			if s > 0 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for !claimed() {
		if time.Now().After(deadline) {
			t.Fatal("no helper claimed a tile")
		}
		runtime.Gosched()
	}
}

// TestRenderAheadHelperPanic poisons one tile's primitive list so rendering
// it panics, makes sure a helper renders it, and requires the panic on
// RunRaster's caller with every helper gone: both when the replay waits on
// that tile and when the frame ends without dispatching it.
func TestRenderAheadHelperPanic(t *testing.T) {
	sc, prims, lists := testFrame(t, aheadGrid)
	order := aheadGrid.Traversal(tiling.OrderMorton)
	bad := order[0]
	for _, tc := range []struct {
		name  string
		order []int
	}{
		{"replay-waits", order},
		{"frame-end", order[1:]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			poisoned := &tiling.TileLists{Grid: lists.Grid, Lists: append([][]tiling.PrimRef(nil), lists.Lists...)}
			poisoned.Lists[bad] = []tiling.PrimRef{{Prim: 1 << 30}}

			before := runtime.NumGoroutine()
			eng := NewEngine(smallCfg(1), aheadGrid, testHier())
			eng.setRenderAhead(2, aheadWindow, aheadWindow)
			q := &gatedQueue{SingleQueue: sched.NewSingleQueue(tc.order, "gated"), peek: []int{bad}, eng: eng, gate: bad, t: t}
			got := func() (p any) {
				defer func() { p = recover() }()
				eng.RunRaster(FrameInput{
					Scene: sc, Prims: prims, Lists: poisoned,
					FB:        raster.NewFrameBuffer(aheadGrid.ScreenW, aheadGrid.ScreenH),
					Scheduler: q,
				})
				return nil
			}()
			err, ok := got.(runtime.Error)
			if !ok || !strings.Contains(err.Error(), "index out of range") {
				t.Fatalf("RunRaster panicked with %v, want the helper's index-out-of-range panic", got)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRenderAheadHelps checks the overlap actually happens: with one helper
// and a truthful Peek, helpers render tiles the replay then consumes.
func TestRenderAheadHelps(t *testing.T) {
	sc, prims, lists := testFrame(t, aheadGrid)
	eng := NewEngine(smallCfg(2), aheadGrid, testHier())
	eng.setRenderAhead(1, aheadWindow, 2*(aheadWindow-1))
	fb := raster.NewFrameBuffer(aheadGrid.ScreenW, aheadGrid.ScreenH)
	for f := 0; f < 3; f++ {
		q := &countHelped{Scheduler: sched.NewZOrderQueue(aheadGrid), eng: eng, t: t}
		eng.RunRaster(FrameInput{Scene: sc, Prims: prims, Lists: lists, FB: fb, Scheduler: q})
		if q.helped == 0 {
			t.Errorf("frame %d: no dispatched tile was rendered by a helper", f)
		}
	}
}

// countHelped counts dispatched tiles a helper had claimed, holding the
// frame's first dispatch until a helper has claimed one.
type countHelped struct {
	sched.Scheduler
	eng     *Engine
	t       *testing.T
	started bool
	helped  int
}

func (c *countHelped) NextTile(ru int) int {
	if !c.started {
		waitClaimed(c.t, c.eng, -1)
		c.started = true
	}
	t := c.Scheduler.NextTile(ru)
	if t >= 0 {
		a := c.eng.ahead
		a.mu.Lock()
		if a.state[t] > 0 {
			c.helped++
		}
		a.mu.Unlock()
	}
	return t
}

func (c *countHelped) Peek(ru int, dst []int) []int {
	return c.Scheduler.(sched.Peeker).Peek(ru, dst)
}

// TestNewEngineRenderAheadShape pins how NewEngine sizes render-ahead:
// Workers 1 is the serial engine, any other value gets maxHelpers helpers
// capped at GOMAXPROCS−1, and aheadWindow+1 pool slots per RU with helpers:
// the tile it replays and a spare for every tile of its lookahead (one slot
// without helpers).
func TestNewEngineRenderAheadShape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 8} {
			cfg := smallCfg(2)
			cfg.Workers = workers
			eng := NewEngine(cfg, aheadGrid, testHier())
			helpers := min(maxHelpers, procs-1)
			if workers == 1 {
				helpers = 0
			}
			pool := 2
			if helpers > 0 {
				pool = 2 * (aheadWindow + 1)
			}
			if got := len(eng.ahead.renderers); got != helpers {
				t.Errorf("procs=%d workers=%d: %d helpers, want %d", procs, workers, got, helpers)
			}
			if got := len(eng.ahead.pool); got != pool {
				t.Errorf("procs=%d workers=%d: %d pool slots, want %d", procs, workers, got, pool)
			}
		}
	}
}
