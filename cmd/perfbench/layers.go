package main

import (
	"fmt"
	"time"

	libra "repro"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/raster"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tiling"
	"repro/internal/workloads"
)

// Layer spans recorded by the traced run, in the order a frame calls them.
const (
	spanScene     = iota // workloads.Game.FrameScene
	spanGeometry         // gpipe.Pipeline.Run
	spanBin              // tiling.Binner.Bin
	spanPBWrite          // mem.Hierarchy.AccessThroughL1, Parameter Buffer writes
	spanSched            // sched constructors and sched.Adaptive
	spanSignature        // tiling.AppendTileSignatures (an empty span when RE is off)
	spanRaster           // raster.Renderer.RenderTileInto, every tile not skipped
	spanReplay           // sim.Engine.RunRaster over the pre-rendered work
	spanEnergy           // energy.Estimate
	numSpans
)

var spanMetric = [numSpans]string{
	"workloads.scene_ms", "gpipe.run_ms", "tiling.bin_ms", "mem.pb_write_ms",
	"sched.build_ms", "tiling.signature_ms", "raster.render_ms", "sim.replay_ms",
	"energy.estimate_ms",
}

// span is one recorded layer call: the layer, the frame that caused it
// (its parent span), and its start and end on the run's clock.
type span struct {
	layer      int
	frame      int64
	start, end time.Duration
}

// tracer keeps every span of a run in memory; they are summarized when the
// run ends.
type tracer struct {
	epoch time.Time
	spans []span
	frame int64 // id of the frame being composed, unique within the run
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// mark closes the span of layer that began at from and returns its end,
// which is where the next layer's span begins.
func (t *tracer) mark(layer int, from time.Duration) time.Duration {
	now := time.Since(t.epoch)
	t.spans = append(t.spans, span{layer, t.frame, from, now})
	return now
}

// composedFrame is what the traced composition reports for one frame.
type composedFrame struct {
	hash                               uint64
	totalCycles, rasterCycles          int64
	dramAccesses                       uint64
	dramAvgLatency, dramRowHitRatio    float64
	texHitRatio, l2HitRatio, avgTexLat float64
	temperature                        bool
	supertile                          int
	energyUJ                           float64
	tilesRendered, tilesSkipped        int
	fragments, prims, binnedRefs       int
	ruUtilMin                          float64
	traced                             time.Duration // wall time of the whole composed frame
}

// composer renders a game's frames by calling each layer's public entry
// point in the order core.GPU.RenderFrame does: scene, geometry, binning,
// Parameter Buffer writes, scheduler, signatures, functional raster of
// every tile that is not skipped, the timing replay of that work, energy,
// then the adaptive controller's bookkeeping. It must reproduce libra.Run's
// FrameHash and TotalCycles frame for frame (the traced run checks it).
type composer struct {
	cfg      core.Config
	game     *workloads.Game
	grid     tiling.Grid
	hier     *mem.Hierarchy
	gp       *gpipe.Pipeline
	eng      *sim.Engine
	fb       *raster.FrameBuffer
	adaptive *sched.Adaptive
	renderer *raster.Renderer
	binner   tiling.Binner
	works    []raster.TileWork

	prevTiles *stats.TileTable
	sigPrev   []uint64
	sigCur    []uint64
	skip      []bool
	sigValid  bool

	clock int64
	next  int
}

// coreConfig is the internal GPU configuration libra.NewRun builds for cfg,
// for the configurations the benchmark uses (zorder PTR or LIBRA, optional
// L2 size and RE, serial engine).
func coreConfig(cfg libra.Config) (core.Config, error) {
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	if cfg.SimWorkers > 1 || cfg.ReplayWorkers > 1 || cfg.SupertileSize != 0 || cfg.IdealMemory ||
		cfg.PrefetchTexture || cfg.Filtering != "" || cfg.DRAMRefresh || cfg.PostedWrites ||
		cfg.IntervalWidth != 0 || cfg.HitRatioThreshold != 0 || cfg.OrderSwitchThreshold != 0 ||
		cfg.SupertileResizeThreshold != 0 {
		return core.Config{}, fmt.Errorf("composition does not model config %+v", cfg)
	}
	cc := core.DefaultConfig(cfg.ScreenW, cfg.ScreenH)
	cc.Sim.RasterUnits = cfg.RasterUnits
	cc.Sim.CoresPerRU = cfg.CoresPerRU
	switch cfg.Policy {
	case libra.PolicyZOrder:
		cc.Mode = core.ModeZOrder
	case libra.PolicyLIBRA:
		cc.Mode = core.ModeLIBRA
	default:
		return core.Config{}, fmt.Errorf("composition does not model policy %q", cfg.Policy)
	}
	if cfg.L2KB > 0 {
		cc.L2.SizeBytes = cfg.L2KB * 1024
	}
	cc.RenderElim = cfg.RenderElim
	return cc, nil
}

func newComposer(cfg libra.Config, game string) (*composer, error) {
	cc, err := coreConfig(cfg)
	if err != nil {
		return nil, err
	}
	p, err := workloads.ByAbbrev(game)
	if err != nil {
		return nil, err
	}
	grid := tiling.NewGrid(cc.ScreenW, cc.ScreenH)
	hier := mem.NewHierarchy(cc.L2, cc.DRAM)
	return &composer{
		cfg:      cc,
		game:     p.New(),
		grid:     grid,
		hier:     hier,
		gp:       gpipe.New(cc.Geometry, cc.VertexCache, hier),
		eng:      sim.NewEngine(cc.Sim, grid, hier),
		fb:       raster.NewFrameBuffer(cc.ScreenW, cc.ScreenH),
		adaptive: sched.NewAdaptive(cc.Adaptive),
		renderer: raster.NewRenderer(grid),
		works:    make([]raster.TileWork, grid.NumTiles()),
	}, nil
}

// frame composes the next frame, recording one span per layer call in tr.
func (c *composer) frame(tr *tracer) composedFrame {
	var out composedFrame
	tr.frame++
	begin := time.Since(tr.epoch)
	t := begin

	c.hier.ResetStats()
	c.eng.ResetFrameStats()
	c.gp.VertexCache().ResetStats()
	start := c.clock

	sc := c.game.FrameScene(c.next)
	t = tr.mark(spanScene, t)

	prims, gst := c.gp.Run(sc, c.cfg.ScreenW, c.cfg.ScreenH, start)
	t = tr.mark(spanGeometry, t)

	lists := c.binner.Bin(c.grid, prims)
	t = tr.mark(spanBin, t)

	if n := int64((lists.PBBytes + 63) / 64); n > 0 {
		for i := int64(0); i < n; i++ {
			c.hier.AccessThroughL1(c.eng.TileCache(), start+gst.Cycles*i/n, mem.ParamBase+uint64(i*64), true)
		}
	}
	t = tr.mark(spanPBWrite, t)

	rasterStart := start + gst.Cycles
	scheduler, order, super := c.buildScheduler()
	t = tr.mark(spanSched, t)

	var skip []bool
	if c.cfg.RenderElim {
		c.sigCur = tiling.AppendTileSignatures(c.sigCur[:0], lists, prims, sc, uint64(c.cfg.Sim.Filtering))
		if c.sigValid && len(c.sigPrev) == len(c.sigCur) {
			if cap(c.skip) < len(c.sigCur) {
				c.skip = make([]bool, len(c.sigCur))
			}
			c.skip = c.skip[:len(c.sigCur)]
			for i, sig := range c.sigCur {
				c.skip[i] = sig == c.sigPrev[i]
			}
			skip = c.skip
		}
	}
	t = tr.mark(spanSignature, t)

	for tile := range lists.Lists {
		if skip != nil && skip[tile] {
			continue
		}
		c.renderer.RenderTileInto(&c.works[tile], sc, prims, lists.Lists[tile], tile, c.fb)
		out.tilesRendered++
	}
	t = tr.mark(spanRaster, t)

	tileStats := stats.NewTileTable(c.grid.TilesX, c.grid.TilesY)
	ro := c.eng.RunRaster(sim.FrameInput{
		Scene:      sc,
		Prims:      prims,
		Lists:      lists,
		FB:         c.fb,
		Scheduler:  scheduler,
		Works:      c.works,
		Skip:       skip,
		TileStats:  tileStats,
		StartCycle: rasterStart,
	})
	t = tr.mark(spanReplay, t)

	l2 := c.hier.L2.Stats()
	dr := c.hier.DRAM.Stats()
	instructions := ro.Instructions + gst.Instructions
	en := energy.Estimate(c.cfg.Energy, energy.Activity{
		Instructions: instructions,
		L1Accesses:   ro.TexLineAccesses + gst.VertexFetches + c.eng.TileCache().Stats().Accesses,
		L2Accesses:   l2.Accesses,
		DRAMReads:    dr.Reads,
		DRAMWrites:   dr.Writes,
		RowMisses:    dr.RowMisses,
		Cycles:       gst.Cycles + ro.RasterCycles,
	})
	tr.mark(spanEnergy, t)

	c.adaptive.Observe(sched.FrameMetrics{RasterCycles: ro.RasterCycles, TexHitRatio: ro.TexHitRatio()}, order)
	c.prevTiles = tileStats
	if c.cfg.RenderElim {
		c.sigPrev, c.sigCur = c.sigCur, c.sigPrev
		c.sigValid = true
	}
	c.clock = rasterStart + ro.RasterCycles
	c.next++

	out.hash = c.fb.Hash()
	out.totalCycles = gst.Cycles + ro.RasterCycles
	out.rasterCycles = ro.RasterCycles
	out.dramAccesses = dr.Accesses()
	out.dramAvgLatency = dr.AvgLatency()
	out.dramRowHitRatio = dr.RowHitRatio()
	out.texHitRatio = ro.TexHitRatio()
	out.l2HitRatio = l2.HitRatio()
	out.avgTexLat = ro.AvgTexLatency()
	out.temperature = order == sched.ModeTemperature
	out.supertile = super
	out.energyUJ = en.Total
	out.tilesSkipped = ro.TilesSkipped
	out.fragments = ro.Fragments
	out.prims = len(prims)
	out.binnedRefs = lists.Binned
	for i := range ro.PerRU {
		u := ro.Utilization(i, c.cfg.Sim.CoresPerRU)
		if i == 0 || u < out.ruUtilMin {
			out.ruUtilMin = u
		}
	}
	out.traced = time.Since(tr.epoch) - begin
	return out
}

// buildScheduler builds the frame's tile scheduler from the public sched
// constructors, as core does for the zorder and LIBRA modes.
func (c *composer) buildScheduler() (sched.Scheduler, sched.OrderMode, int) {
	if c.cfg.Mode != core.ModeLIBRA {
		return sched.NewZOrderQueue(c.grid), sched.ModeZOrder, 0
	}
	size := c.adaptive.SupertileSize()
	// Shrink the supertile until every Raster Unit has enough supertiles
	// to be kept fed (core's capSupertile).
	for size > 2 && tiling.NewSupertileGrid(c.grid, size).NumSupertiles() < 4*c.cfg.Sim.RasterUnits {
		size /= 2
	}
	super := tiling.NewSupertileGrid(c.grid, size)
	if c.adaptive.Mode() == sched.ModeTemperature && c.prevTiles != nil {
		ranked := sched.RankSupertiles(super, c.prevTiles)
		return sched.NewTemperature(super, ranked, c.cfg.Sim.RasterUnits), sched.ModeTemperature, size
	}
	return sched.NewZOrderQueue(c.grid), sched.ModeZOrder, size
}

// layerStats accumulates a traced run: the composed frames, their spans, and
// the untraced frames timed beside them.
type layerStats struct {
	frames                 int
	spanNS                 [numSpans]float64
	tracedNS, untracedNS   float64
	untracedFrames         int
	allocs, allocBytes     float64
	tiles, skipped, frags  float64
	prims, binned          float64
	rasterCycles           float64
	ruUtilMin              float64
	texHit, l2Hit, texLat  float64
	dram, dramLat, rowHit  float64
	temperature, supertile float64
	energyUJ               float64
}

// addComposed folds one composed frame and its spans into the totals.
func (s *layerStats) addComposed(f composedFrame) {
	s.frames++
	s.tracedNS += float64(f.traced)
	s.tiles += float64(f.tilesRendered)
	s.skipped += float64(f.tilesSkipped)
	s.frags += float64(f.fragments)
	s.prims += float64(f.prims)
	s.binned += float64(f.binnedRefs)
	s.rasterCycles += float64(f.rasterCycles)
	s.ruUtilMin += f.ruUtilMin
	s.texHit += f.texHitRatio
	s.l2Hit += f.l2HitRatio
	s.texLat += f.avgTexLat
	s.dram += float64(f.dramAccesses)
	s.dramLat += f.dramAvgLatency
	s.rowHit += f.dramRowHitRatio
	if f.temperature {
		s.temperature++
	}
	s.supertile += float64(f.supertile)
	s.energyUJ += f.energyUJ
}

// addSpans folds a tracer's spans into the per-layer totals.
func (s *layerStats) addSpans(tr *tracer) {
	for _, sp := range tr.spans {
		s.spanNS[sp.layer] += float64(sp.end - sp.start)
	}
	tr.spans = tr.spans[:0]
}

// addUntraced records one untraced frame's wall time and allocations.
func (s *layerStats) addUntraced(d time.Duration, allocs, bytes uint64) {
	s.untracedFrames++
	s.untracedNS += float64(d)
	s.allocs += float64(allocs)
	s.allocBytes += float64(bytes)
}

// metrics returns the per-layer metrics of the frame path.
func (s *layerStats) metrics(gcFraction float64) map[string]metric {
	n := float64(s.frames)
	per := func(v float64) float64 { return ratio(v, n) }
	ms := func(ns float64) float64 { return per(ns) / 1e6 }
	m := map[string]metric{}
	var spanSum float64
	for i, name := range spanMetric {
		m[name] = metric{ms(s.spanNS[i]), "ms"}
		spanSum += s.spanNS[i]
	}
	untracedMS := ratio(s.untracedNS, float64(s.untracedFrames)) / 1e6
	m["raster.tiles"] = metric{per(s.tiles), "count"}
	m["raster.fragments"] = metric{per(s.frags), "count"}
	m["raster.ns_per_fragment"] = metric{ratio(s.spanNS[spanRaster], s.frags), "ns"}
	m["sim.replay_ns_per_kcycle"] = metric{ratio(s.spanNS[spanReplay], s.rasterCycles/1000), "ns"}
	m["sim.ru_util_min"] = metric{per(s.ruUtilMin), "ratio"}
	m["sim.tiles_skipped"] = metric{per(s.skipped), "count"}
	m["sim.skip_ratio"] = metric{ratio(s.skipped, s.skipped+s.tiles), "ratio"}
	m["tiling.binned_refs"] = metric{per(s.binned), "count"}
	m["gpipe.prims"] = metric{per(s.prims), "count"}
	m["mem.tex_l1_hit_ratio"] = metric{per(s.texHit), "ratio"}
	m["mem.l2_hit_ratio"] = metric{per(s.l2Hit), "ratio"}
	m["mem.avg_tex_latency_cycles"] = metric{per(s.texLat), "cycles"}
	m["dram.accesses"] = metric{per(s.dram), "count"}
	m["dram.avg_latency_cycles"] = metric{per(s.dramLat), "cycles"}
	m["dram.row_hit_ratio"] = metric{per(s.rowHit), "ratio"}
	m["sched.temperature_ratio"] = metric{per(s.temperature), "ratio"}
	m["sched.supertile"] = metric{per(s.supertile), "tiles"}
	m["energy.frame_uj"] = metric{per(s.energyUJ), "uJ"}
	m["core.self_ms"] = metric{untracedMS - ms(spanSum), "ms"}
	m["bench.trace_overhead_pct"] = metric{100 * ratio(ms(s.tracedNS)-untracedMS, untracedMS), "%"}
	m["runtime.allocs_per_frame"] = metric{ratio(s.allocs, float64(s.untracedFrames)), "count"}
	m["runtime.bytes_per_frame"] = metric{ratio(s.allocBytes, float64(s.untracedFrames)), "B"}
	m["runtime.gc_cpu_fraction"] = metric{gcFraction, "ratio"}
	return m
}
