// Epoch-parallel L1 classification (DESIGN §15).
//
// AccessThroughL1 interleaves two very different kinds of state:
//
//   - The *L1-local* half — the demand lookup, the dirty-victim selection and
//     the next-line prefetch install — mutates only the private L1 passed in.
//     cache.Cache is deliberately time-free (LRU runs on an internal tick, so
//     hit/miss/victim outcomes depend only on the per-cache address sequence),
//     which makes this half a pure function of the L1's access stream: it can
//     be computed on any goroutine, at any wall-clock moment, as long as the
//     per-cache order is preserved.
//   - The *shared* half — the telemetry emit, the L2 lookup, the DRAM timing
//     and the writeback traffic — touches order- and time-sensitive global
//     state and must run on the single timing goroutine, at the authoritative
//     simulation cycle.
//
// ClassifyL1 performs exactly the first half and records its outcome;
// ReplayThroughL1 performs exactly the second half given that outcome. By
// construction, ClassifyL1 followed by ReplayThroughL1 at the demand cycle is
// the same computation as AccessThroughL1 — same L1 state, same L2/DRAM call
// sequence, same latencies, same statistics — which is what lets the timing
// engine classify texture streams concurrently (sim.Config.ReplayWorkers)
// while keeping every result byte-identical to the serial replay.
// TestClassifyReplayMatchesAccess pins the decomposition differentially.
package mem

import (
	"repro/internal/mem/cache"
	"repro/internal/telemetry"
)

// L1Outcome flag bits.
const (
	// L1Hit: the demand access hit in the L1.
	L1Hit uint8 = 1 << iota
	// L1Writeback: the demand miss displaced a dirty victim (Victim holds
	// its line address) that must be written back through the L2.
	L1Writeback
	// L1Prefetch: the next-line prefetcher installed a new line, so the
	// replay owes the L2 a fill request for it.
	L1Prefetch
	// L1PrefetchWB: the prefetch install displaced a dirty victim (PFVictim
	// holds its line address).
	L1PrefetchWB
)

// L1Outcome is the L1-local result of one classified access: everything the
// timing replay needs to reproduce the access's shared-memory traffic without
// touching the L1 again. The prefetched line address itself is not stored —
// it is recomputed from the demand address, keeping the record at three
// words.
type L1Outcome struct {
	Flags    uint8
	Victim   uint64 // dirty demand victim, valid when L1Writeback is set
	PFVictim uint64 // dirty prefetch victim, valid when L1PrefetchWB is set
}

// ClassifyL1 performs the L1-local half of AccessThroughL1: the functional
// demand access and, when enabled, the next-line prefetch install. It never
// touches the L2, the DRAM or the telemetry recorder, so concurrent calls
// are safe as long as each L1 cache stays confined to one goroutine and its
// address order is preserved.
//
//libra:hotpath
func (h *Hierarchy) ClassifyL1(l1 *cache.Cache, addr uint64, write bool) L1Outcome {
	if h.IdealL1 {
		// Mirror AccessThroughL1's ideal path: touch the cache functionally
		// (hit ratios stay comparable) and serve at L1 latency.
		l1.Access(addr, write)
		return L1Outcome{Flags: L1Hit}
	}
	var o L1Outcome
	r1 := l1.Access(addr, write)
	if r1.Hit {
		o.Flags = L1Hit
	} else if r1.Evicted && r1.Dirty {
		o.Flags = L1Writeback
		o.Victim = r1.Victim
	}
	if h.PrefetchNextLine {
		next := l1.LineAddr(addr) + uint64(l1.Config().LineBytes)
		if !l1.Contains(next) {
			rp := l1.Install(next)
			o.Flags |= L1Prefetch
			if rp.Evicted && rp.Dirty {
				o.Flags |= L1PrefetchWB
				o.PFVictim = rp.Victim
			}
		}
	}
	return o
}

// ReplayThroughL1 performs the shared half of AccessThroughL1 at the
// authoritative cycle `now`, given the outcome ClassifyL1 recorded for the
// same access: the telemetry emit, the L2/DRAM round trip on a miss, the
// dirty-victim writebacks and the prefetch fill. It reads only immutable
// cache geometry from l1 (hit latency, line size), never its line state, so
// the classifier may already be running ahead on the same cache.
//
// The branch structure replicates AccessThroughL1 exactly — same L2 call
// sequence, same latency composition — so a classified access replayed here
// is indistinguishable from a direct one.
//
//libra:hotpath
func (h *Hierarchy) ReplayThroughL1(l1 *cache.Cache, now int64, addr uint64, write bool, o L1Outcome) AccessResult {
	l1lat := l1.HitLatency()
	if h.IdealL1 {
		if h.Rec != nil {
			h.Rec.CacheAccess(telemetry.CacheL1, now, true)
		}
		return AccessResult{Latency: l1lat, Level: LevelL1}
	}
	hit := o.Flags&L1Hit != 0
	if h.Rec != nil {
		h.Rec.CacheAccess(telemetry.CacheL1, now, hit)
	}
	var res AccessResult
	if hit {
		res = AccessResult{Latency: l1lat, Level: LevelL1}
	} else {
		res = h.AccessL2(now+l1lat, addr, write)
		if o.Flags&L1Writeback != 0 {
			wb := h.AccessL2(now+l1lat, o.Victim, true)
			res.DRAMAccesses += wb.DRAMAccesses
		}
		res.Latency += l1lat
	}
	if o.Flags&L1Prefetch != 0 {
		next := l1.LineAddr(addr) + uint64(l1.Config().LineBytes)
		pf := h.AccessL2(now+l1lat, next, false)
		res.DRAMAccesses += pf.DRAMAccesses
		if o.Flags&L1PrefetchWB != 0 {
			wb := h.AccessL2(now+l1lat, o.PFVictim, true)
			res.DRAMAccesses += wb.DRAMAccesses
		}
	}
	return res
}
