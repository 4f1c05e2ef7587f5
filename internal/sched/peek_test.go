package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tiling"
)

// peekFactories builds every scheduler with Peek over g for numRUs Raster
// Units; each call returns a fresh, identically seeded instance.
func peekFactories(g tiling.Grid) map[string]func(numRUs int) Scheduler {
	prev := stats.NewTileTable(g.TilesX, g.TilesY)
	for i := range prev.DRAMAccesses {
		prev.DRAMAccesses[i] = uint32((i * 29) % 13)
		prev.Instructions[i] = uint64(1 + i%7)
	}
	out := map[string]func(int) Scheduler{
		"zorder": func(int) Scheduler { return NewZOrderQueue(g) },
		"random": func(int) Scheduler { return NewRandomQueue(g, 3) },
		"pfr":    func(n int) Scheduler { return NewPFR(g, n) },
	}
	for _, k := range []int{2, 4} {
		super := tiling.NewSupertileGrid(g, k)
		ranked := RankSupertiles(super, prev)
		out[fmt.Sprintf("supertile-%d", k)] = func(n int) Scheduler { return NewStaticSupertileQueue(super, n) }
		out[fmt.Sprintf("temperature-%d", k)] = func(n int) Scheduler { return NewTemperature(super, ranked, n) }
		out[fmt.Sprintf("alt-temperature-%d", k)] = func(n int) Scheduler { return NewAlternatingTemperature(super, ranked, n) }
		out[fmt.Sprintf("instrumented-temperature-%d", k)] = func(n int) Scheduler {
			return Instrument(NewTemperature(super, ranked, n), telemetry.NewTrace(telemetry.TraceConfig{}))
		}
		out[fmt.Sprintf("recorded-supertile-%d", k)] = func(n int) Scheduler {
			var log []Decision
			return Record(NewStaticSupertileQueue(super, n), &log)
		}
	}
	return out
}

// TestPeekPredictsNextTile is the Peek contract, for every scheduler and
// RU count: at every point of a randomly interleaved frame, Peek(ru) with
// any window equals the NextTile(ru) results that follow when no other RU
// pulls in between. The prediction is checked on a twin replayed to the
// same point, so peeking never touches the scheduler under test — and the
// scheduler under test, peeked at every step, must still hand out exactly
// the twin-free reference's decisions.
func TestPeekPredictsNextTile(t *testing.T) {
	g := grid()
	for name, mk := range peekFactories(g) {
		for numRUs := 1; numRUs <= 4; numRUs++ {
			t.Run(fmt.Sprintf("%s/rus=%d", name, numRUs), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(numRUs)))
				s := mk(numRUs)
				var history []int // RU of every NextTile call so far
				var got, want []Decision
				ref := mk(numRUs)
				done := make([]bool, numRUs)
				for live := numRUs; live > 0; {
					ru := rng.Intn(numRUs)
					if done[ru] {
						continue
					}
					for _, window := range []int{1, 3, 16, 2 * g.NumTiles()} {
						peek := s.(Peeker).Peek(ru, make([]int, window))
						twin := mk(numRUs)
						for _, r := range history {
							twin.NextTile(r)
						}
						var next []int
						for len(next) < window {
							tile := twin.NextTile(ru)
							if tile < 0 {
								break
							}
							next = append(next, tile)
						}
						if !reflect.DeepEqual(peek, next) && (len(peek) > 0 || len(next) > 0) {
							t.Fatalf("after %d calls, Peek(%d) window %d = %v, next NextTile(%d) = %v",
								len(history), ru, window, peek, ru, next)
						}
					}
					tile := s.NextTile(ru)
					got = append(got, Decision{RU: ru, Tile: tile})
					want = append(want, Decision{RU: ru, Tile: ref.NextTile(ru)})
					history = append(history, ru)
					if tile < 0 {
						done[ru] = true
						live--
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("peeking changed the scheduler's decisions")
				}
			})
		}
	}
}

// TestPeekAllocatesNothing pins Peek, and the supertile schedulers'
// NextTile, at zero heap allocations: the engine calls Peek after every
// dispatch of every frame.
func TestPeekAllocatesNothing(t *testing.T) {
	g := grid()
	dst := make([]int, 8)
	for name, mk := range peekFactories(g) {
		s := mk(2)
		s.NextTile(0)
		s.NextTile(1)
		if allocs := testing.AllocsPerRun(100, func() {
			s.(Peeker).Peek(0, dst)
			s.(Peeker).Peek(1, dst)
		}); allocs != 0 {
			t.Errorf("%s: Peek allocated %.1f times", name, allocs)
		}
	}
	super := tiling.NewSupertileGrid(g, 2)
	for name, mk := range map[string]func() Scheduler{
		"supertile":       func() Scheduler { return NewStaticSupertileQueue(super, 2) },
		"temperature":     func() Scheduler { return NewTemperature(super, super.SupertileTraversal(), 2) },
		"alt-temperature": func() Scheduler { return NewAlternatingTemperature(super, super.SupertileTraversal(), 2) },
	} {
		s := mk()
		if allocs := testing.AllocsPerRun(10, func() {
			s.NextTile(0)
			s.NextTile(1)
		}); allocs != 0 {
			t.Errorf("%s: NextTile allocated %.1f times", name, allocs)
		}
	}
}

// noPeek is a scheduler without Peek.
type noPeek struct{ Scheduler }

// TestWrappersDelegatePeek: Instrument and Record answer Peek with the
// wrapped scheduler's answer, and with nothing for a scheduler without
// Peek.
func TestWrappersDelegatePeek(t *testing.T) {
	g := grid()
	var log []Decision
	wrap := map[string]func(Scheduler) Scheduler{
		"instrument": func(s Scheduler) Scheduler { return Instrument(s, telemetry.NewTrace(telemetry.TraceConfig{})) },
		"record":     func(s Scheduler) Scheduler { return Record(s, &log) },
	}
	for name, w := range wrap {
		inner := NewZOrderQueue(g)
		inner.NextTile(0)
		want := inner.Peek(0, make([]int, 5))
		if got := w(inner).(Peeker).Peek(0, make([]int, 5)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Peek = %v, want %v", name, got, want)
		}
		hidden := w(noPeek{NewZOrderQueue(g)})
		if got := hidden.(Peeker).Peek(0, make([]int, 5)); len(got) != 0 {
			t.Errorf("%s over a scheduler without Peek: Peek = %v, want none", name, got)
		}
	}
	if len(log) != 0 {
		t.Errorf("Peek logged decisions: %v", log)
	}
}
