// The barrier render farm of the parallel timing replay.
//
// A frame's time splits into two phases with very different
// parallelization properties:
//
//   - The *functional* phase rasterizes tiles: edge walking, attribute
//     interpolation, depth test, blending, texture-footprint generation.
//     Its output, raster.TileWork, is a pure function of (Scene, Prims,
//     Lists, tile id): the Renderer's on-chip Z/Color buffers are reset at
//     every tile, Frame Buffer writes of distinct tiles touch disjoint
//     pixels, and no other state is shared.
//   - The *timing* phase replays that work against the shared memory system
//     (per-core L1s → shared L2 → timed DRAM) under the tile scheduler's
//     decisions. Every quad batch mutates order-sensitive shared state, so
//     this phase is the global-time synchronization domain: it runs on one
//     goroutine, in the engine's reference event order, always.
//
// The engine's live path overlaps the two tile by tile (ahead.go). The
// parallel replay (Config.ReplayWorkers > 1, replay.go) instead needs every
// tile's work before its classifiers start, so renderFarm renders the whole
// frame first: workers pull tile indices from a shared atomic cursor
// (dynamic load balance — hot tiles are an order of magnitude heavier than
// cold ones) and write each result into its own tile-indexed slot. The
// farm's barrier (WaitGroup rendezvous) is the single synchronization point
// between the phases; the timing replay then consumes the pre-rendered work
// in exactly the order the serial engine would have produced it inline.
// Determinism therefore holds by construction, not by tuning: no
// timing-phase state is ever touched concurrently, and the work slots are a
// deterministic merge regardless of which worker rendered which tile.
package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/raster"
	"repro/internal/tiling"
)

// renderFarm owns one private Renderer per worker. Renderers carry no
// cross-tile state (buffers reset per tile), so any worker may render any
// tile; private instances exist only to keep the scratch Z/Color buffers
// race-free. The per-tile work slots persist across frames: each slot's
// slices are reset and refilled in place every frame, so steady-state frames
// allocate nothing here. Slot buffers are valid until the next renderFrame.
type renderFarm struct {
	renderers []*raster.Renderer
	works     []raster.TileWork

	// Per-frame shared worker state. renderFrame resets these before the
	// workers start and clears them after the barrier; keeping them on the
	// farm (instead of capturing them in per-frame closures) lets workers
	// run as plain `go f.work(r)` method calls, so a steady-state frame
	// spawns goroutines without allocating closure environments.
	in       FrameInput
	tiles    int          // tile count of the frame being rendered
	cursor   atomic.Int64 // next tile index to claim
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any // first worker panic, re-raised after the barrier
}

// newRenderFarm builds the worker-private renderers for cfg.Workers workers.
func newRenderFarm(cfg Config, grid tiling.Grid) *renderFarm {
	f := &renderFarm{}
	for i := 0; i < cfg.Workers; i++ {
		r := raster.NewRenderer(grid)
		r.SetFiltering(cfg.Filtering)
		f.renderers = append(f.renderers, r)
	}
	return f
}

// renderFrame rasterizes every tile of the frame on the farm and returns the
// per-tile work indexed by tile id — the same array a trace replay would
// supply via FrameInput.Works. It returns only after the rendezvous barrier:
// all tiles rendered, all Frame Buffer pixels written, all slots published.
// A panic on a worker is re-raised on the calling goroutine, matching the
// serial path where rasterization panics surface to RunRaster's caller.
func (f *renderFarm) renderFrame(in FrameInput) []raster.TileWork {
	n := len(in.Lists.Lists)
	if cap(f.works) < n {
		f.works = make([]raster.TileWork, n)
	}
	works := f.works[:n]
	workers := len(f.renderers)
	if workers > n {
		workers = n
	}

	f.in = in
	f.tiles = n
	f.cursor.Store(0)
	f.panicked = nil
	for w := 0; w < workers; w++ {
		f.wg.Add(1)
		go f.work(f.renderers[w])
	}
	f.wg.Wait()
	f.in = FrameInput{} // drop the frame's scene/list references at the barrier
	if p := f.panicked; p != nil {
		f.panicked = nil
		panic(p)
	}
	return works
}

// work is one worker's frame loop: claim tiles off the shared cursor until
// the frame is exhausted. The frame state it reads (f.in, f.tiles, f.works)
// is written before the goroutines start and not touched again until after
// the barrier, so the only synchronization it needs is the cursor itself.
func (f *renderFarm) work(r *raster.Renderer) {
	defer f.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			f.panicMu.Lock()
			if f.panicked == nil {
				f.panicked = p
			}
			f.panicMu.Unlock()
		}
	}()
	works := f.works[:f.tiles]
	for {
		tile := int(f.cursor.Add(1)) - 1
		if tile >= f.tiles {
			return
		}
		if f.in.Skip != nil && f.in.Skip[tile] {
			// Rendering Elimination: the timing replay will skip this tile
			// before touching its (stale) work slot, so rendering it here
			// would be wasted — and would overwrite Frame Buffer pixels the
			// skip contract promises to leave untouched (they are already
			// identical by the signature argument, but not re-writing them is
			// what makes RE a host-side win too).
			continue
		}
		r.RenderTileInto(&works[tile], f.in.Scene, f.in.Prims, f.in.Lists.Lists[tile], tile, f.in.FB)
	}
}
