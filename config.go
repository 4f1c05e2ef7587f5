// Package libra is a from-scratch reproduction of "LIBRA: Memory Bandwidth-
// and Locality-Aware Parallel Tile Rendering" (MICRO 2024): a complete
// Tile-Based Rendering (TBR) mobile-GPU simulator — geometry pipeline,
// tiling engine, parallel Raster Units, cache hierarchy, LPDDR4-class DRAM
// timing, energy model — together with the paper's contribution, the
// temperature-aware adaptive tile scheduler, and a 32-game synthetic
// benchmark suite standing in for the paper's Android game traces.
//
// The root package is the public API: configure a GPU (Config), pick a
// benchmark (Benchmarks), and render frames (NewRun / Run.RenderFrame).
// Everything is deterministic: identical configurations produce identical
// cycle counts and frame hashes.
package libra

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/raster"
	"repro/internal/sched"
)

// Policy selects the tile scheduling policy.
type Policy string

// Scheduling policies.
const (
	// PolicyZOrder is the conventional scheduler: one shared Z-order tile
	// queue. With RasterUnits=1 this is the paper's baseline GPU; with
	// more it is plain parallel tile rendering (PTR).
	PolicyZOrder Policy = "zorder"
	// PolicyStaticSupertile dispatches fixed-size supertiles in Z-order.
	PolicyStaticSupertile Policy = "static-supertile"
	// PolicyTemperature always uses the previous frame's temperature
	// ranking with a fixed supertile size.
	PolicyTemperature Policy = "temperature"
	// PolicyLIBRA is the full adaptive scheduler of the paper (§III).
	PolicyLIBRA Policy = "libra"

	// Ablation policies (not part of the paper's proposal; used to isolate
	// where LIBRA's benefit comes from — see the ablation experiments).

	// PolicyHilbert traverses tiles along a Hilbert curve.
	PolicyHilbert Policy = "hilbert"
	// PolicyReverse alternates the traversal direction every frame.
	PolicyReverse Policy = "reverse"
	// PolicyRandom shuffles the tile order every frame.
	PolicyRandom Policy = "random"
	// PolicyAltTemperature interleaves the hot and cold ends of the ranking
	// into one shared queue instead of dedicating a hot Raster Unit.
	PolicyAltTemperature Policy = "alt-temperature"
)

// Config describes a simulated GPU. Zero values are filled with Table I
// defaults by Normalize; construct via DefaultConfig / Baseline / PTR /
// LIBRA and tweak fields as needed.
type Config struct {
	// Screen dimensions in pixels. Tiles are fixed at 32×32 (Table I).
	ScreenW, ScreenH int
	// ClockHz is the GPU clock for FPS conversion (Table I: 800 MHz).
	ClockHz float64

	// RasterUnits renders that many tiles in parallel; CoresPerRU shader
	// cores serve each Raster Unit.
	RasterUnits int
	CoresPerRU  int

	// SimWorkers chooses between one simulation's two engines (intra-frame
	// parallelism, DESIGN §9): 1 is the serial engine, where the timing
	// replay renders every tile itself; 0 (the zero value) or any other
	// value adds one render-ahead helper that renders the tiles the
	// scheduler dispatches next while the replay runs. More than one helper
	// has not been measured to help, so larger values buy nothing more. The
	// helper needs GOMAXPROCS ≥ 2, so a single-CPU process always runs the
	// serial engine. Results are byte-identical for any value: cycle counts,
	// statistics, telemetry and frame hashes do not change. Compose with the
	// experiment drivers' -jobs fan-out: -jobs spreads *across* simulations,
	// SimWorkers speeds up each *single* simulation.
	SimWorkers int

	// ReplayWorkers is read by nothing: the parallel timing replay it sized
	// is gone. It is still decoded and validated (negative values are
	// rejected), so existing configurations and /v1/run bodies keep
	// working, and it stays out of result-store keys.
	//
	// Deprecated: the timing replay always runs on one goroutine; set
	// SimWorkers instead.
	ReplayWorkers int

	Policy Policy
	// SupertileSize is the fixed supertile edge for PolicyStaticSupertile
	// and PolicyTemperature (2, 4, 8 or 16).
	SupertileSize int

	// Adaptive thresholds (§III-D); zero means the paper's defaults
	// (80% hit ratio, 3% order switch, 0.25% supertile resize).
	HitRatioThreshold        float64
	OrderSwitchThreshold     float64
	SupertileResizeThreshold float64

	// L2KB overrides the shared L2 capacity in KiB (default: Table I's
	// 2048). Scaled-down screens should scale the L2 with screen area so
	// the cache-to-working-set ratio of the FHD evaluation is preserved.
	L2KB int

	// IdealMemory makes every L1 access hit (used to measure the memory
	// fraction of execution time, Fig. 6a).
	IdealMemory bool

	// Extension features (off by default; ablation studies).

	// PrefetchTexture enables a tagged next-line prefetcher in the L1s.
	PrefetchTexture bool
	// Filtering selects the texture sampling footprint: "nearest"
	// (default), "bilinear" or "trilinear". Wider footprints touch more
	// texel lines per fragment.
	Filtering string
	// DRAMRefresh enables periodic refresh stalls in the DRAM model.
	DRAMRefresh bool
	// PostedWrites lets DRAM writes release their bank after the data
	// burst (read-priority memory controller).
	PostedWrites bool
	// RenderElim enables Rendering Elimination: each tile's rendering
	// inputs (binned triangles, shader/texture state, filtering) are hashed
	// per frame, and a tile whose signature matches the previous frame is
	// discarded at dispatch — its pixels are already in the Frame Buffer, so
	// skipping performs no raster, shading or memory work. Rendered output
	// is provably unchanged; only cycle/energy accounting improves on
	// coherent frames.
	RenderElim bool
	// IntervalWidth, when non-zero, records the DRAM-requests-per-interval
	// histogram of every frame (Fig. 7 uses 5000 cycles).
	IntervalWidth int64
}

// DefaultConfig is the paper's baseline GPU (Table I) at the given screen:
// one Raster Unit with 8 shader cores, Z-order scheduling.
func DefaultConfig(screenW, screenH int) Config {
	return Config{
		ScreenW:     screenW,
		ScreenH:     screenH,
		ClockHz:     800e6,
		RasterUnits: 1,
		CoresPerRU:  8,
		Policy:      PolicyZOrder,
	}
}

// Baseline returns the conventional single-Raster-Unit GPU with the given
// total core count.
func Baseline(screenW, screenH, totalCores int) Config {
	cfg := DefaultConfig(screenW, screenH)
	cfg.CoresPerRU = totalCores
	return cfg
}

// PTR returns plain parallel tile rendering: rasterUnits Raster Units of 4
// cores each with interleaved Z-order dispatch (§III-A).
func PTR(screenW, screenH, rasterUnits int) Config {
	cfg := DefaultConfig(screenW, screenH)
	cfg.RasterUnits = rasterUnits
	cfg.CoresPerRU = 4
	return cfg
}

// LIBRA returns the paper's proposal: PTR plus the adaptive
// temperature-aware scheduler.
func LIBRA(screenW, screenH, rasterUnits int) Config {
	cfg := PTR(screenW, screenH, rasterUnits)
	cfg.Policy = PolicyLIBRA
	return cfg
}

// MaxScreenDim bounds each screen dimension accepted by Validate. The
// largest evaluated configuration is FHD; 16384 leaves an order of magnitude
// of headroom while keeping the framebuffer and per-tile tables allocatable,
// so a hostile configuration (e.g. decoded from a network request) cannot
// ask the simulator to allocate terabytes before higher layers ever see it.
const MaxScreenDim = 16384

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ScreenW <= 0 || c.ScreenH <= 0 {
		return fmt.Errorf("libra: invalid screen %dx%d", c.ScreenW, c.ScreenH)
	}
	if c.ScreenW > MaxScreenDim || c.ScreenH > MaxScreenDim {
		return fmt.Errorf("libra: screen %dx%d exceeds the %d-pixel dimension bound",
			c.ScreenW, c.ScreenH, MaxScreenDim)
	}
	if c.RasterUnits < 1 || c.CoresPerRU < 1 {
		return fmt.Errorf("libra: need at least one raster unit and core")
	}
	if c.SimWorkers < 0 {
		return fmt.Errorf("libra: negative sim workers %d", c.SimWorkers)
	}
	if c.ReplayWorkers < 0 {
		return fmt.Errorf("libra: negative replay workers %d", c.ReplayWorkers)
	}
	switch c.Policy {
	case PolicyZOrder, PolicyStaticSupertile, PolicyTemperature, PolicyLIBRA,
		PolicyHilbert, PolicyReverse, PolicyRandom, PolicyAltTemperature, "":
	default:
		return fmt.Errorf("libra: unknown policy %q", c.Policy)
	}
	if c.SupertileSize != 0 {
		switch c.SupertileSize {
		case 2, 4, 8, 16:
		default:
			return fmt.Errorf("libra: supertile size %d not in {2,4,8,16}", c.SupertileSize)
		}
	}
	switch c.Filtering {
	case "", "nearest", "bilinear", "trilinear":
	default:
		return fmt.Errorf("libra: unknown filtering %q", c.Filtering)
	}
	return nil
}

// toCore translates the public configuration into the internal GPU config.
func (c Config) toCore() core.Config {
	cc := core.DefaultConfig(c.ScreenW, c.ScreenH)
	if c.ClockHz > 0 {
		cc.ClockHz = c.ClockHz
	}
	cc.Sim.RasterUnits = c.RasterUnits
	cc.Sim.CoresPerRU = c.CoresPerRU
	cc.Sim.Workers = c.SimWorkers
	switch c.Policy {
	case PolicyStaticSupertile:
		cc.Mode = core.ModeStaticSupertile
	case PolicyTemperature:
		cc.Mode = core.ModeTemperature
	case PolicyLIBRA:
		cc.Mode = core.ModeLIBRA
	case PolicyHilbert:
		cc.Mode = core.ModeHilbert
	case PolicyReverse:
		cc.Mode = core.ModeReverse
	case PolicyRandom:
		cc.Mode = core.ModeRandom
	case PolicyAltTemperature:
		cc.Mode = core.ModeAltTemperature
	default:
		cc.Mode = core.ModeZOrder
	}
	if c.SupertileSize != 0 {
		cc.StaticSupertile = c.SupertileSize
		cc.Adaptive.InitialSupertile = c.SupertileSize
	}
	ad := sched.DefaultAdaptiveConfig()
	if c.HitRatioThreshold > 0 {
		ad.HitRatioThreshold = c.HitRatioThreshold
	}
	if c.OrderSwitchThreshold > 0 {
		ad.OrderSwitchThreshold = c.OrderSwitchThreshold
	}
	if c.SupertileResizeThreshold > 0 {
		ad.SupertileResizeThreshold = c.SupertileResizeThreshold
	}
	ad.InitialSupertile = cc.Adaptive.InitialSupertile
	cc.Adaptive = ad
	if c.L2KB > 0 {
		cc.L2.SizeBytes = c.L2KB * 1024
	}
	cc.PrefetchTexture = c.PrefetchTexture
	switch c.Filtering {
	case "bilinear":
		cc.Sim.Filtering = raster.FilterBilinear
	case "trilinear":
		cc.Sim.Filtering = raster.FilterTrilinear
	}
	if c.DRAMRefresh {
		// tREFI ≈ 3.9 µs and tRFC ≈ 210 ns at the 800 MHz core clock.
		cc.DRAM.RefreshInterval = 3120
		cc.DRAM.RefreshLatency = 168
	}
	cc.DRAM.PostedWrites = c.PostedWrites
	cc.RenderElim = c.RenderElim
	cc.IdealMemory = c.IdealMemory
	cc.IntervalWidth = c.IntervalWidth
	return cc
}
