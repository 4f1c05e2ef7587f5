package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
)

// KeySpec is the canonical identity of one simulation result: every input
// that can change the output must appear here, and nothing else may. The
// key is a SHA-256 over a canonical serialization, so it is stable across
// processes and insensitive to the order fields were collected in.
//
// Host-parallelism knobs (-jobs, SimWorkers) are deliberately NOT part of a
// key: results are byte-identical for any value, so a warm run may change
// them freely and still hit.
type KeySpec struct {
	// Schema is the on-disk payload schema (SchemaVersion). A bump misses
	// cleanly against every entry written before it.
	Schema int
	// Fingerprint identifies the simulator code (see DefaultFingerprint);
	// a changed fingerprint misses cleanly rather than serving results
	// computed by different code.
	Fingerprint string
	// Game is the benchmark abbreviation; Seed its generator seed.
	Game string
	Seed int64
	// Frames and Warmup fix the simulated frame window and the summary
	// aggregation over it.
	Frames, Warmup int
	// Fields holds every remaining input as canonical name→value pairs
	// (flattened configuration and workload profile; see FlattenInto).
	// Map order is irrelevant: serialization sorts by name.
	Fields map[string]string
}

// Key returns the spec's content address: 64 lowercase hex digits.
func (s KeySpec) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\nfingerprint=%s\ngame=%s\nseed=%d\nframes=%d\nwarmup=%d\n",
		s.Schema, s.Fingerprint, s.Game, s.Seed, s.Frames, s.Warmup)
	names := make([]string, 0, len(s.Fields))
	for name := range s.Fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%s\n", name, s.Fields[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FlattenInto records every exported field of the struct v (recursing into
// nested structs) as a "prefix.Field"→value pair in dst. Values are
// formatted with %v, which is deterministic for every type the simulator
// configs use (fmt prints maps with sorted keys). Any single-field change
// therefore changes at least one pair, and hence the key.
func FlattenInto(dst map[string]string, prefix string, v any) {
	flattenValue(dst, prefix, reflect.ValueOf(v))
}

func flattenValue(dst map[string]string, prefix string, rv reflect.Value) {
	if rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			dst[prefix] = "<nil>"
			return
		}
		flattenValue(dst, prefix, rv.Elem())
		return
	}
	if rv.Kind() != reflect.Struct {
		dst[prefix] = fmt.Sprintf("%v", rv.Interface())
		return
	}
	t := rv.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		flattenValue(dst, prefix+"."+f.Name, rv.Field(i))
	}
}

// DefaultFingerprint identifies the code of the running binary: the VCS
// revision (plus a dirty marker) when the binary was built from a checkout,
// else the main module version. It is constant within one binary — which is
// what cross-process result sharing needs — and changes whenever a rebuilt
// binary picks up new committed code.
func DefaultFingerprint() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, modified string
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	if rev != "" {
		return rev + modified
	}
	if v := strings.TrimSpace(bi.Main.Version); v != "" {
		return v
	}
	return "unknown"
}
