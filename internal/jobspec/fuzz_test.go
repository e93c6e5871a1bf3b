package jobspec

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// decodeStrict decodes a spec document the way the job server does:
// unknown fields are an error, trailing bytes after the first value are
// ignored.
func decodeStrict(b []byte) (*Spec, error) {
	spec := new(Spec)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return spec, dec.Decode(spec)
}

// FuzzSpecDecode feeds arbitrary bytes through the admission path a
// submitted spec takes: strict decode, ApplyDefaults, Validate. It must
// never panic, and every spec it accepts must keep its content address
// through a marshal → decode → ApplyDefaults round trip — the journal
// stores the defaulted spec and a restart re-derives cache keys from
// it, so a spec whose hash drifts would orphan its cached result.
func FuzzSpecDecode(f *testing.F) {
	ota, err := os.ReadFile("../../examples/ota_reliability/ota.sp")
	if err != nil {
		f.Fatal(err)
	}
	for _, deck := range []string{inverterDeck, string(ota)} {
		for _, k := range Kinds() {
			b, err := json.Marshal(sparseSpecs(deck)[k])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Add([]byte(`{"analysis":"mc","netlist":"x","mc":{"node":"out","trials":4096,"range":{"from":0,"to":1024},"corner":{"name":"SS"}},"timeout":"1m30s"}`))
	f.Add([]byte(`{"analysis":"tran","netlist":"x","tran":{"stop":1e-6,"step":1e-9,"adaptive":true},"timeout":1500000000}`))
	f.Add([]byte(`{"analysis":"op","netlist_file":"deck.sp","no_cache":true,"seed":18446744073709551615}`))
	f.Add([]byte(`{"analysis":"op","netlist":"x","typo_field":1}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		spec, err := decodeStrict(b)
		if err != nil {
			return
		}
		spec.ApplyDefaults()
		if spec.Validate() != nil {
			return
		}
		want := spec.CanonicalHash()
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := decodeStrict(enc)
		if err != nil {
			t.Fatalf("accepted spec does not decode from its own encoding %s: %v", enc, err)
		}
		back.ApplyDefaults()
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec %s no longer validates: %v", enc, err)
		}
		if got := back.CanonicalHash(); got != want {
			t.Fatalf("CanonicalHash moved over a round trip: %s -> %s\nspec %s", want, got, enc)
		}
	})
}
