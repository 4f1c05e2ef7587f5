package sched

import "repro/internal/telemetry"

// Instrumented decorates a Scheduler so every successful dispatch is
// published to a telemetry Recorder (per-RU assignment counters). The wrapped
// scheduler's policy is unchanged; NextTile itself carries no timestamp
// because tile dispatch is timing-free — the Raster Unit's TileSpan records
// the when.
type Instrumented struct {
	Scheduler
	rec telemetry.Recorder
}

// Instrument wraps s with telemetry publication. A nil recorder returns s
// unchanged, so the disabled path adds no indirection at all.
func Instrument(s Scheduler, rec telemetry.Recorder) Scheduler {
	if rec == nil {
		return s
	}
	return &Instrumented{Scheduler: s, rec: rec}
}

// NextTile implements Scheduler.
func (s *Instrumented) NextTile(ru int) int {
	t := s.Scheduler.NextTile(ru)
	// Instrument never constructs with a nil recorder, but the nil-guard is
	// the structural invariant telemetrylint enforces at every emit site.
	if t >= 0 && s.rec != nil {
		s.rec.TileAssigned(ru, t)
	}
	return t
}

// Peek implements Peeker by delegating to the wrapped scheduler; one
// without Peek reports no upcoming tiles.
func (s *Instrumented) Peek(ru int, dst []int) []int {
	return peek(s.Scheduler, ru, dst)
}

// peek is s's Peek when it has one, else no upcoming tiles.
func peek(s Scheduler, ru int, dst []int) []int {
	if p, ok := s.(Peeker); ok {
		return p.Peek(ru, dst)
	}
	return dst[:0]
}
