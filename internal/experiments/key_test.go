package experiments

import (
	"fmt"
	"reflect"
	"testing"

	libra "repro"
)

// mutateField changes field i of the struct pointed to by pv in a
// kind-appropriate way and reports whether the value actually changed
// (false for unsupported kinds).
func mutateField(pv reflect.Value, i int, delta int64) bool {
	if delta == 0 {
		delta = 1
	}
	f := pv.Elem().Field(i)
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + delta)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 0.5)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "x")
	default:
		return false
	}
	return true
}

func keyOf(t testing.TB, p Params, cfg libra.Config) string {
	t.Helper()
	r := NewRunner(p)
	r.SetFingerprint("key-prop")
	spec, err := r.KeySpec(cfg, "Jet")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Key()
}

// TestKeyCoversEveryConfigField walks libra.Config by reflection: mutating
// any field must change the store key — except the host parallelism knob
// SimWorkers and the deprecated ReplayWorkers, which are excluded by design
// (warm runs may change them and must still hit). New Config fields are
// covered automatically; a field that needs exclusion must be added here
// deliberately.
func TestKeyCoversEveryConfigField(t *testing.T) {
	p := storeParams()
	base := keyOf(t, p, NewRunner(p).Baseline())
	ct := reflect.TypeOf(libra.Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		cfg := NewRunner(p).Baseline()
		if !mutateField(reflect.ValueOf(&cfg), i, 1) {
			t.Errorf("Config.%s: unsupported kind %s — extend mutateField", name, ct.Field(i).Type.Kind())
			continue
		}
		k := keyOf(t, p, cfg)
		if name == "SimWorkers" || name == "ReplayWorkers" {
			if k != base {
				t.Errorf("Config.%s changed the key: it must be excluded", name)
			}
			continue
		}
		if k == base {
			t.Errorf("Config.%s does not participate in the store key", name)
		}
	}
}

// TestKeyCoversFramesAndWarmup: the runner-level frame window is part of the
// identity even though it lives outside libra.Config.
func TestKeyCoversFramesAndWarmup(t *testing.T) {
	p := storeParams()
	cfg := NewRunner(p).Baseline()
	base := keyOf(t, p, cfg)
	pf := p
	pf.Frames++
	if keyOf(t, pf, cfg) == base {
		t.Error("Params.Frames does not participate in the store key")
	}
	pw := p
	pw.Warmup++
	if keyOf(t, pw, cfg) == base {
		t.Error("Params.Warmup does not participate in the store key")
	}
}

// TestKeyCoversGameAndFingerprint: different benchmarks and different code
// fingerprints must never share a key.
func TestKeyCoversGameAndFingerprint(t *testing.T) {
	p := storeParams()
	r := NewRunner(p)
	r.SetFingerprint("fp-a")
	cfg := r.Baseline()
	sJet, err := r.KeySpec(cfg, "Jet")
	if err != nil {
		t.Fatal(err)
	}
	sCCS, err := r.KeySpec(cfg, "CCS")
	if err != nil {
		t.Fatal(err)
	}
	if sJet.Key() == sCCS.Key() {
		t.Error("two benchmarks share a store key")
	}
	r.SetFingerprint("fp-b")
	sJet2, err := r.KeySpec(cfg, "Jet")
	if err != nil {
		t.Fatal(err)
	}
	if sJet.Key() == sJet2.Key() {
		t.Error("two fingerprints share a store key")
	}
}

// TestKeySpecRejectsUnknownGame: the key derivation fails cleanly for a
// benchmark outside the suite (the caller then simulates unshared — and the
// simulation itself reports the real error).
func TestKeySpecRejectsUnknownGame(t *testing.T) {
	r := NewRunner(storeParams())
	if _, err := r.KeySpec(r.Baseline(), "NOPE"); err == nil {
		t.Fatal("KeySpec accepted an unknown game")
	}
}

// FuzzResultKey fuzzes (field, delta) over libra.Config: any effective
// mutation must change the key unless the field is excluded by design
// (SimWorkers, ReplayWorkers), and key derivation must stay stable across
// repeated calls.
func FuzzResultKey(f *testing.F) {
	ct := reflect.TypeOf(libra.Config{})
	for i := 0; i < ct.NumField(); i++ {
		f.Add(i, int64(1))
		f.Add(i, int64(-3))
	}
	p := storeParams()
	base := keyOf(f, p, NewRunner(p).Baseline())
	f.Fuzz(func(t *testing.T, field int, delta int64) {
		if field < 0 || field >= ct.NumField() {
			t.Skip()
		}
		cfg := NewRunner(p).Baseline()
		before := fmt.Sprintf("%+v", cfg)
		if !mutateField(reflect.ValueOf(&cfg), field, delta) {
			t.Skip()
		}
		if fmt.Sprintf("%+v", cfg) == before {
			t.Skip() // mutation was a no-op (e.g. int overflow wrap to same)
		}
		k1 := keyOf(t, p, cfg)
		k2 := keyOf(t, p, cfg)
		if k1 != k2 {
			t.Fatalf("key derivation unstable: %s vs %s", k1, k2)
		}
		if name := ct.Field(field).Name; name == "SimWorkers" || name == "ReplayWorkers" {
			if k1 != base {
				t.Fatalf("Config.%s mutation changed the key", name)
			}
		} else if k1 == base {
			t.Fatalf("Config.%s mutation did not change the key", name)
		}
	})
}
