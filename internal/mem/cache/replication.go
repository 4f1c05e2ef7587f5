package cache

import "slices"

// CountReplicated counts the resident line copies across caches that belong
// to a line resident in more than one of them (replicated), and every
// resident copy (total): the inputs of the block-replication metric. buf is
// scratch, returned grown for reuse.
//
// The caches must share one geometry (line size, set count, associativity),
// as the texture L1s built from one Config do; it panics otherwise. A line
// then maps to the same set index in each, and is resident at most once per
// cache, so duplicates are counted set by set, over at most
// len(caches)×Ways lines at a time, instead of sorting every resident line.
func CountReplicated(caches []*Cache, buf []uint64) (replicated, total int, _ []uint64) {
	if len(caches) == 0 {
		return 0, 0, buf
	}
	first := caches[0]
	for _, c := range caches[1:] {
		if c.numSets != first.numSets || c.cfg.Ways != first.cfg.Ways || c.lineShift != first.lineShift {
			panic("cache: CountReplicated over caches of differing geometry")
		}
	}
	ways := first.cfg.Ways
	for set := 0; set < first.numSets; set++ {
		buf = buf[:0]
		for _, c := range caches {
			for _, l := range c.lines[set*ways : (set+1)*ways] {
				if l.valid {
					buf = append(buf, l.tag)
				}
			}
		}
		replicated += countRuns(buf)
		total += len(buf)
	}
	return replicated, total, buf
}

// countRuns sorts lines and returns how many of them sit in runs of equal
// values longer than one.
func countRuns(lines []uint64) int {
	slices.Sort(lines)
	n := 0
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j] == lines[i] {
			j++
		}
		if j-i > 1 {
			n += j - i
		}
		i = j
	}
	return n
}
