// Package cache implements the set-associative, write-back, write-allocate
// caches of the simulated TBR GPU: the Vertex cache and Tile cache of the
// tiling engine, the per-shader-core L1 Texture caches, and the shared L2.
//
// The model is functional (it tracks real line residency, so locality effects
// of tile scheduling show up as hit-ratio changes) with a fixed per-level hit
// latency; miss latencies are composed by the memory hierarchy that owns the
// cache.
package cache

import "fmt"

// Config describes a cache's geometry.
type Config struct {
	Name       string // for diagnostics ("tex0", "L2", ...)
	SizeBytes  int    // total capacity
	LineBytes  int    // line size (power of two)
	Ways       int    // associativity
	HitLatency int64  // access latency in GPU cycles
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d", c.Name, c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events since the last reset.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// HitRatio returns hits/accesses, or 0 for an untouched cache.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// Cache is a single set-associative cache level.
type Cache struct {
	cfg       Config
	lines     []line // numSets*ways, set-major
	numSets   int
	lineShift uint
	setMask   uint64
	tick      uint64
	stats     Stats
}

// New builds a cache from cfg. It panics on an invalid configuration, which
// is a programming error in the simulator setup, not a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, numSets*cfg.Ways),
		numSets:   numSets,
		lineShift: shift,
		setMask:   uint64(numSets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the cache's hit latency in cycles: Config().HitLatency
// without copying the Config on every access.
func (c *Cache) HitLatency() int64 { return c.cfg.HitLatency }

// Stats returns the event counters accumulated since the last ResetStats.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the event counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Invalidate drops all cached lines and clears statistics.
func (c *Cache) Invalidate() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.stats = Stats{}
	c.tick = 0
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Result describes the outcome of a cache access.
type Result struct {
	Hit     bool
	Evicted bool   // a valid line was displaced
	Victim  uint64 // line address of the displaced line (when Evicted)
	Dirty   bool   // the displaced line was dirty and must be written back
}

// Access performs a read (write=false) or write (write=true) of the line
// containing addr, allocating on miss and evicting LRU when the set is full.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.tick++
	c.stats.Accesses++
	tag := addr >> c.lineShift
	set := int(tag & c.setMask)
	base := set * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]

	// Hit path.
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.stats.Hits++
			ways[i].lastUse = c.tick
			if write {
				ways[i].dirty = true
			}
			return Result{Hit: true}
		}
	}

	// Miss: choose a victim (invalid line first, else LRU).
	c.stats.Misses++
	victim := 0
	oldest := ^uint64(0)
	for i := range ways {
		if !ways[i].valid {
			victim = i
			oldest = 0
			break
		}
		if ways[i].lastUse < oldest {
			oldest = ways[i].lastUse
			victim = i
		}
	}
	var res Result
	if ways[victim].valid {
		c.stats.Evictions++
		res.Evicted = true
		res.Victim = ways[victim].tag << c.lineShift
		if ways[victim].dirty {
			c.stats.Writebacks++
			res.Dirty = true
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lastUse: c.tick}
	return res
}

// Install allocates the line containing addr without touching the demand
// statistics — the fill path used by prefetchers. Returns eviction info like
// Access. Installing an already-resident line refreshes its LRU position.
func (c *Cache) Install(addr uint64) Result {
	c.tick++
	tag := addr >> c.lineShift
	set := int(tag & c.setMask)
	base := set * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lastUse = c.tick
			return Result{Hit: true}
		}
	}
	victim := 0
	oldest := ^uint64(0)
	for i := range ways {
		if !ways[i].valid {
			victim = i
			oldest = 0
			break
		}
		if ways[i].lastUse < oldest {
			oldest = ways[i].lastUse
			victim = i
		}
	}
	var res Result
	if ways[victim].valid {
		res.Evicted = true
		res.Victim = ways[victim].tag << c.lineShift
		res.Dirty = ways[victim].dirty
	}
	ways[victim] = line{tag: tag, valid: true, lastUse: c.tick}
	return res
}

// Contains probes for the line containing addr without disturbing LRU state
// or statistics. It is used to measure inter-cache block replication.
func (c *Cache) Contains(addr uint64) bool {
	tag := addr >> c.lineShift
	set := int(tag & c.setMask)
	base := set * c.cfg.Ways
	for _, l := range c.lines[base : base+c.cfg.Ways] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Lines returns the line addresses currently resident, used to measure
// block replication across sibling caches.
func (c *Cache) Lines() []uint64 {
	return c.AppendLines(nil)
}

// AppendLines appends the resident line addresses to dst and returns the
// extended slice — the allocation-free form of Lines for callers with a
// reusable scratch buffer.
func (c *Cache) AppendLines(dst []uint64) []uint64 {
	for _, l := range c.lines {
		if l.valid {
			dst = append(dst, l.tag<<c.lineShift)
		}
	}
	return dst
}

// ValidLines returns the number of currently valid lines (test helper and
// occupancy metric).
func (c *Cache) ValidLines() int {
	n := 0
	for _, l := range c.lines {
		if l.valid {
			n++
		}
	}
	return n
}
