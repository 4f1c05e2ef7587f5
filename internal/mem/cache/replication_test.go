package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// replicatedRef is the sort-based count: every resident line of every cache
// gathered and sorted, replicated lines appearing as runs longer than one.
func replicatedRef(caches []*Cache) (replicated, total int) {
	var lines []uint64
	for _, c := range caches {
		lines = c.AppendLines(lines)
	}
	slices.Sort(lines)
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j] == lines[i] {
			j++
		}
		if j-i > 1 {
			replicated += j - i
		}
		i = j
	}
	return replicated, len(lines)
}

// TestCountReplicatedMatchesSort fills caches of one geometry with random
// traffic over address pools small and large enough to give heavy, light and
// no replication, and compares CountReplicated with the sort.
func TestCountReplicatedMatchesSort(t *testing.T) {
	tex := Config{Name: "tex", SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4, HitLatency: 2}
	rng := rand.New(rand.NewSource(11))
	var buf []uint64
	for _, ncaches := range []int{0, 1, 2, 8} {
		for _, poolLines := range []int{64, 600, 4096, 1 << 20} {
			caches := make([]*Cache, ncaches)
			for i := range caches {
				caches[i] = New(tex)
				for a := rng.Intn(3000); a > 0; a-- {
					caches[i].Access(uint64(rng.Intn(poolLines))*64, rng.Intn(4) == 0)
				}
			}
			t.Run(fmt.Sprintf("caches=%d/pool=%d", ncaches, poolLines), func(t *testing.T) {
				var rep, total int
				rep, total, buf = CountReplicated(caches, buf)
				wantRep, wantTotal := replicatedRef(caches)
				if rep != wantRep || total != wantTotal {
					t.Errorf("CountReplicated = %d of %d, sort says %d of %d", rep, total, wantRep, wantTotal)
				}
			})
		}
	}
}

// TestCountReplicatedRejectsMixedGeometry pins the one-geometry contract:
// caches whose set index of a line may differ cannot be counted set by set.
func TestCountReplicatedRejectsMixedGeometry(t *testing.T) {
	tex := Config{Name: "tex", SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4, HitLatency: 2}
	for name, other := range map[string]Config{
		"ways":  {Name: "wide", SizeBytes: 32 * 1024, LineBytes: 64, Ways: 8, HitLatency: 2},
		"sets":  {Name: "small", SizeBytes: 8 * 1024, LineBytes: 64, Ways: 4, HitLatency: 2},
		"lines": {Name: "long", SizeBytes: 32 * 1024, LineBytes: 128, Ways: 4, HitLatency: 2},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("CountReplicated accepted caches of differing geometry")
				}
			}()
			CountReplicated([]*Cache{New(tex), New(other)}, nil)
		})
	}
}
