package sched

// Decision is one scheduler grant: tile was handed to Raster Unit RU. The
// sequence of Decisions over a frame fully determines the tile→RU assignment
// and per-RU rendering order, so two runs with identical decision logs are
// scheduled identically.
type Decision struct {
	RU   int
	Tile int // -1 records an end-of-work response
}

// recorded decorates a Scheduler with an external decision log.
type recorded struct {
	inner Scheduler
	log   *[]Decision
}

// Record wraps a scheduler so that every NextTile grant (including the
// terminal -1 responses) is appended to *log in call order. It is the
// instrumentation behind the serial/parallel equivalence harnesses: the
// engine's scheduler interleaving is part of its externally visible
// behaviour, and the log makes it comparable byte for byte.
func Record(s Scheduler, log *[]Decision) Scheduler {
	return &recorded{inner: s, log: log}
}

// NextTile implements Scheduler.
func (r *recorded) NextTile(ru int) int {
	t := r.inner.NextTile(ru)
	*r.log = append(*r.log, Decision{RU: ru, Tile: t})
	return t
}

// Name implements Scheduler.
func (r *recorded) Name() string { return r.inner.Name() }

// Peek implements Peeker by delegating to the wrapped scheduler. Peeks are
// not decisions, so nothing is logged.
func (r *recorded) Peek(ru int, dst []int) []int { return peek(r.inner, ru, dst) }
