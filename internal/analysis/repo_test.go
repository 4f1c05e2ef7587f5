package analysis

import (
	"path/filepath"
	"testing"
)

// TestRepoIsLintClean is the acceptance gate mirrored by the CI lint job:
// the full analyzer suite over the whole module, filtered by the checked-in
// allowlist, reports nothing. Any new wall-clock read, global rand call,
// float equality, unsorted map-ordered output, unguarded telemetry emit or
// unplumbed rand seed fails this test before it can reach CI.
func TestRepoIsLintClean(t *testing.T) {
	m := loadRepo(t)
	allow, err := ParseAllowlistFile(filepath.Join(m.Root, "libralint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunModule(m, Analyzers(), allow) {
		t.Errorf("%s", d)
	}
}

// TestAllowlistIsMinimal pins the reviewed exceptions: exactly four entries —
// the implementation behind experiments.Clock (progress/ETA on stderr), the
// result store's age-based GC cutoff, the RU's deliberate per-tile borrow of
// FrameInput's transient work arenas, and TryRun's documented context-free
// wrapper. Growing the allowlist is a reviewed decision, not a drift.
func TestAllowlistIsMinimal(t *testing.T) {
	m := loadRepo(t)
	allow, err := ParseAllowlistFile(filepath.Join(m.Root, "libralint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"detlint internal/experiments:clock.go":       true,
		"detlint internal/resultstore:gc.go":          true,
		"retainlint internal/sim:sim.go":              true,
		"ctxlint internal/experiments:experiments.go": true,
	}
	if len(allow.Entries) != len(want) {
		t.Fatalf("libralint.allow has %d entries, want exactly %d (Clock, store GC, RU work borrow, TryRun wrapper)", len(allow.Entries), len(want))
	}
	for _, e := range allow.Entries {
		got := e.Analyzer + " " + e.Package + ":" + e.File
		if !want[got] {
			t.Errorf("unexpected allowlist entry: %+v", *e)
		}
	}
}

// TestHotPathSetCoversAllocGates ties alloclint's reachability closure to the
// repo's AllocsPerRun == 0 gates: every function those benchmarks pin at zero
// steady-state allocations must be in the hot set, or alloclint is proving a
// contract about the wrong code. trace.Read allocates by design (it builds
// the FrameTrace it returns) and must stay out.
func TestHotPathSetCoversAllocGates(t *testing.T) {
	m := loadRepo(t)
	hot := HotPathFunctions(m)
	for _, fn := range []string{
		"(*repro/internal/raster.Renderer).RenderTileInto",
		"(*repro/internal/raster.FrameBuffer).AppendTileFlushLines",
		"(*repro/internal/sim.Engine).RunRaster",
		"(*repro/internal/mem.Hierarchy).AccessThroughL1",
		"(*repro/internal/tiling.Binner).Bin",
		"repro/internal/tiling.TileSignature",
		"repro/internal/tiling.AppendTileSignatures",
		"(*repro/internal/gpipe.Pipeline).Run",
		"repro/internal/trace.Write",
	} {
		if !hot[fn] {
			t.Errorf("hot-path set is missing %s", fn)
		}
	}
	if hot["repro/internal/trace.Read"] {
		t.Errorf("trace.Read is in the hot-path set; Read allocates by design and must not be annotated")
	}
}
