package sim

import (
	"reflect"
	"testing"

	"repro/internal/raster"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tiling"
)

// simHashRec folds the engine's telemetry stream order-sensitively: tile
// spans, skips, dispatches, scheduler decisions, cache and DRAM accesses.
// Their order is part of the engine's externally visible behaviour.
type simHashRec struct{ h uint64 }

func (r *simHashRec) mix(vs ...uint64) {
	for _, v := range vs {
		r.h ^= v
		r.h *= 1099511628211
		r.h ^= r.h >> 29
	}
}
func (r *simHashRec) BeginFrame(frame int, startCycle int64) {
	r.mix(1, uint64(frame), uint64(startCycle))
}
func (r *simHashRec) EndFrame(endCycle int64) { r.mix(2, uint64(endCycle)) }
func (r *simHashRec) TileSpan(ru, tile int, start, end int64, quads, dram int) {
	r.mix(3, uint64(ru), uint64(tile), uint64(start), uint64(end), uint64(quads), uint64(dram))
}
func (r *simHashRec) TileSkipped(ru, tile int, cycle int64) {
	r.mix(4, uint64(ru), uint64(tile), uint64(cycle))
}
func (r *simHashRec) TileAssigned(ru, tile int) { r.mix(5, uint64(ru), uint64(tile)) }
func (r *simHashRec) SchedDecision(cycle int64, policy, order string, supertile int) {
	r.mix(6, uint64(cycle), uint64(len(policy)), uint64(len(order)), uint64(supertile))
}
func (r *simHashRec) DRAMAccess(channel, bank int, start, done int64, write, rowHit bool, queueDepth int) {
	w, rh := uint64(0), uint64(0)
	if write {
		w = 1
	}
	if rowHit {
		rh = 1
	}
	r.mix(7, uint64(channel), uint64(bank), uint64(start), uint64(done), w, rh, uint64(queueDepth))
}
func (r *simHashRec) CacheAccess(level telemetry.CacheLevel, cycle int64, hit bool) {
	h := uint64(0)
	if hit {
		h = 1
	}
	r.mix(8, uint64(level), uint64(cycle), h)
}

// FuzzSchedEquivalence renders the same frame through the serial reference
// engine (zero render-ahead helpers) and through 1–4 helpers under fuzzed
// engine configurations and scheduler choices, and requires the two runs to
// be indistinguishable: identical scheduler decision logs (every NextTile
// grant in call order), identical FrameOutput, identical per-tile
// statistics, identical frame pixels and an identical telemetry fold (every
// timed TileSpan/CacheAccess/DRAMAccess event in order). This is the
// determinism contract of Config.Workers checked from arbitrary config bytes
// rather than the curated test matrix.
func FuzzSchedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), uint8(3), uint8(15), uint8(2), uint8(0))
	f.Add(int64(-7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(911), uint8(3), uint8(7), uint8(11), uint8(63), uint8(3), uint8(2))
	f.Add(int64(65536), uint8(2), uint8(1), uint8(7), uint8(31), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rus, cores, warps, batch, workers, policy uint8) {
		cfg := DefaultConfig()
		cfg.RasterUnits = 1 + int(rus%4)
		cfg.CoresPerRU = 1 + int(cores%8)
		cfg.WarpsPerCore = 1 + int(warps%16)
		cfg.BatchQuads = 1 + int(batch%64)

		grid := tiling.NewGrid(128, 64)
		sc, prims, lists := testFrame(t, grid)
		mkSched := func() sched.Scheduler {
			switch policy % 4 {
			case 0:
				return sched.NewZOrderQueue(grid)
			case 1:
				return sched.NewRandomQueue(grid, seed)
			case 2:
				return sched.NewHilbertQueue(grid)
			default:
				super := tiling.NewSupertileGrid(grid, 2)
				return sched.NewStaticSupertileQueue(super, cfg.RasterUnits)
			}
		}

		run := func(helpers int) (FrameOutput, []sched.Decision, *stats.TileTable, uint64, simHashRec) {
			hier := testHier()
			eng := NewEngine(cfg, grid, hier)
			eng.setRenderAhead(helpers, aheadWindow, (aheadWindow-1)*cfg.RasterUnits)
			fb := raster.NewFrameBuffer(128, 64)
			tt := stats.NewTileTable(grid.TilesX, grid.TilesY)
			var rec simHashRec
			eng.SetRecorder(&rec)
			hier.Rec = &rec
			var log []sched.Decision
			out := eng.RunRaster(FrameInput{
				Scene: sc, Prims: prims, Lists: lists, FB: fb,
				Scheduler: sched.Instrument(sched.Record(mkSched(), &log), &rec),
				TileStats: tt,
			})
			return out, log, tt, fb.Hash(), rec
		}

		serOut, serLog, serTT, serHash, serRec := run(0)
		parOut, parLog, parTT, parHash, parRec := run(1 + int(workers%4))
		if !reflect.DeepEqual(serLog, parLog) {
			t.Fatalf("scheduler decision logs diverge: serial %d grants, parallel %d grants", len(serLog), len(parLog))
		}
		if !reflect.DeepEqual(serOut, parOut) {
			t.Fatalf("FrameOutput diverges:\nserial:   %+v\nparallel: %+v", serOut, parOut)
		}
		if !reflect.DeepEqual(serTT, parTT) {
			t.Fatal("per-tile statistics diverge")
		}
		if serHash != parHash {
			t.Fatalf("frame hash diverges: serial %#x parallel %#x", serHash, parHash)
		}
		if serRec != parRec {
			t.Fatalf("telemetry folds diverge: serial %#x parallel %#x", serRec.h, parRec.h)
		}
	})
}
