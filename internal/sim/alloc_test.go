package sim

import (
	"testing"

	"repro/internal/raster"
	"repro/internal/sched"
	"repro/internal/tiling"
)

// TestReplayRunRasterZeroAllocs pins the timing engine's replay hot loop at
// zero heap allocations: once the engine's per-RU scratch has reached its
// watermark, re-timing a captured frame must not touch the allocator. Trace
// replay drives this path every frame, so any allocation here is a per-frame
// cost multiplied by the whole run.
func TestReplayRunRasterZeroAllocs(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(t, grid)

	// Capture the frame's works once, live.
	eng := NewEngine(smallCfg(2), grid, testHier())
	fb := raster.NewFrameBuffer(128, 64)
	works := make([]raster.TileWork, grid.NumTiles())
	eng.RunRaster(FrameInput{
		Scene: sc, Prims: prims, Lists: lists, FB: fb,
		Scheduler:  sched.NewZOrderQueue(grid),
		OnTileWork: func(tw raster.TileWork) { works[tw.TileID] = tw.Clone() },
	})

	// Schedulers are per-frame objects; pre-build them so the measurement
	// isolates RunRaster itself. AllocsPerRun invokes the closure runs+1
	// times (one warmup).
	const runs = 50
	replayer := NewEngine(smallCfg(2), grid, testHier())
	scheds := make([]sched.Scheduler, runs+1)
	for i := range scheds {
		scheds[i] = sched.NewZOrderQueue(grid)
	}
	replayer.RunRaster(FrameInput{Works: works, Scheduler: sched.NewZOrderQueue(grid)})

	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		replayer.RunRaster(FrameInput{Works: works, Scheduler: scheds[i]})
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state replay RunRaster allocated %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkReplayRunRaster times the timing loop alone (captured works, no
// functional rasterization) — the replay cost every frame pays on the
// replay goroutine, whoever rendered its tiles.
func BenchmarkReplayRunRaster(b *testing.B) {
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(b, grid)
	eng := NewEngine(smallCfg(2), grid, testHier())
	fb := raster.NewFrameBuffer(128, 64)
	works := make([]raster.TileWork, grid.NumTiles())
	eng.RunRaster(FrameInput{
		Scene: sc, Prims: prims, Lists: lists, FB: fb,
		Scheduler:  sched.NewZOrderQueue(grid),
		OnTileWork: func(tw raster.TileWork) { works[tw.TileID] = tw.Clone() },
	})
	replayer := NewEngine(smallCfg(2), grid, testHier())
	replayer.RunRaster(FrameInput{Works: works, Scheduler: sched.NewZOrderQueue(grid)})
	scheds := make([]sched.Scheduler, b.N)
	for i := range scheds {
		scheds[i] = sched.NewZOrderQueue(grid)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayer.RunRaster(FrameInput{Works: works, Scheduler: scheds[i]})
	}
}
