package resultstore

import (
	"regexp"
	"testing"
)

func baseSpec() KeySpec {
	return KeySpec{
		Schema: 1, Fingerprint: "fp", Game: "CCS", Seed: 7, Frames: 10, Warmup: 2,
		Fields: map[string]string{"config.ScreenW": "640", "config.ScreenH": "384"},
	}
}

func TestKeyIsStableAndWellFormed(t *testing.T) {
	spec := baseSpec()
	k1, k2 := spec.Key(), spec.Key()
	if k1 != k2 {
		t.Fatalf("key not stable: %s vs %s", k1, k2)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(k1) {
		t.Fatalf("key %q is not 64 lowercase hex digits", k1)
	}
}

// TestKeyOrderInsensitive builds the Fields map in opposite insertion
// orders; the canonical serialization must erase the difference.
func TestKeyOrderInsensitive(t *testing.T) {
	a := baseSpec()
	a.Fields = map[string]string{}
	a.Fields["config.A"] = "1"
	a.Fields["config.B"] = "2"
	a.Fields["profile.C"] = "3"
	b := baseSpec()
	b.Fields = map[string]string{}
	b.Fields["profile.C"] = "3"
	b.Fields["config.B"] = "2"
	b.Fields["config.A"] = "1"
	if a.Key() != b.Key() {
		t.Fatal("field insertion order changed the key")
	}
}

// TestKeySensitivity mutates every KeySpec component one at a time; each
// mutation must produce a distinct key, and all keys must be distinct from
// each other (no two mutations may collide).
func TestKeySensitivity(t *testing.T) {
	mutations := map[string]func(*KeySpec){
		"schema":        func(s *KeySpec) { s.Schema++ },
		"fingerprint":   func(s *KeySpec) { s.Fingerprint = "fp2" },
		"game":          func(s *KeySpec) { s.Game = "SuS" },
		"seed":          func(s *KeySpec) { s.Seed++ },
		"frames":        func(s *KeySpec) { s.Frames++ },
		"warmup":        func(s *KeySpec) { s.Warmup++ },
		"field-value":   func(s *KeySpec) { s.Fields["config.ScreenW"] = "641" },
		"field-added":   func(s *KeySpec) { s.Fields["config.New"] = "1" },
		"field-removed": func(s *KeySpec) { delete(s.Fields, "config.ScreenH") },
		"field-renamed": func(s *KeySpec) {
			s.Fields["config.ScreenX"] = s.Fields["config.ScreenW"]
			delete(s.Fields, "config.ScreenW")
		},
	}
	base := baseSpec().Key()
	seen := map[string]string{"<base>": base}
	for name, mutate := range mutations {
		spec := baseSpec()
		spec.Fields = map[string]string{}
		for k, v := range baseSpec().Fields {
			spec.Fields[k] = v
		}
		mutate(&spec)
		k := spec.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyNoDelimiterAliasing guards the classic concatenation bug: moving
// characters across the name/value boundary must not produce the same
// serialization.
func TestKeyNoDelimiterAliasing(t *testing.T) {
	a := baseSpec()
	a.Fields = map[string]string{"ab": "c"}
	b := baseSpec()
	b.Fields = map[string]string{"a": "bc"}
	if a.Key() == b.Key() {
		t.Fatal(`fields {"ab":"c"} and {"a":"bc"} alias to one key`)
	}
}

type flatInner struct {
	Depth int
}

type flatOuter struct {
	Name   string
	Count  int
	Ratio  float64
	Inner  flatInner
	Ptr    *flatInner
	hidden int // unexported: must not appear
}

func TestFlattenInto(t *testing.T) {
	dst := map[string]string{}
	FlattenInto(dst, "x", flatOuter{
		Name: "n", Count: 3, Ratio: 0.5,
		Inner: flatInner{Depth: 9}, hidden: 1,
	})
	want := map[string]string{
		"x.Name":        "n",
		"x.Count":       "3",
		"x.Ratio":       "0.5",
		"x.Inner.Depth": "9",
		"x.Ptr":         "<nil>",
	}
	if len(dst) != len(want) {
		t.Fatalf("flattened to %d pairs, want %d: %v", len(dst), len(want), dst)
	}
	for k, v := range want {
		if dst[k] != v {
			t.Errorf("%s = %q, want %q", k, dst[k], v)
		}
	}
	// Non-nil pointers recurse into the pointee.
	dst = map[string]string{}
	FlattenInto(dst, "x", flatOuter{Ptr: &flatInner{Depth: 4}})
	if dst["x.Ptr.Depth"] != "4" {
		t.Errorf("pointer field not flattened: %v", dst)
	}
}

func TestDefaultFingerprintNonEmpty(t *testing.T) {
	if DefaultFingerprint() == "" {
		t.Fatal("DefaultFingerprint returned an empty string")
	}
}
