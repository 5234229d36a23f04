package jobs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSpecNormalizeRoundTrip: the spec a status echoes is "the normalized
// spec the job runs with", so normalize → JSON → normalize must be a fixed
// point. It was not for max_candidates -1 (unlimited): normalized to 0,
// dropped by omitempty, and normalized again to the 50,000 default. One case
// sets every field, so a new field is covered as soon as it is added.
func TestSpecNormalizeRoundTrip(t *testing.T) {
	every := Spec{
		Tenant: "t1", DB: "db.lsq", Matrix: "m.txt", MinMatch: 0.3, MaxLen: 5, MaxGap: 2,
		Delta: 0.01, Sample: 50, MaxCandidates: 7, MemBudget: 9, Finalizer: "levelwise",
		Engine: "candidates", Workers: 3, Seed: 42, Retries: 2, RetryBaseMillis: 5,
		RetryCapMillis: 50, Phase3TimeoutMillis: 1000,
	}
	v := reflect.ValueOf(every)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("the all-fields case leaves Spec.%s zero", v.Type().Field(i).Name)
		}
	}
	minimal := Spec{DB: "db.lsq", Matrix: "m.txt", MinMatch: 0.2, MaxLen: 4}
	unlimited := minimal
	unlimited.MaxCandidates = -1
	noneFinalizer := minimal
	noneFinalizer.Finalizer, noneFinalizer.Engine = "none", "candidates"
	for name, spec := range map[string]Spec{
		"every field": every, "defaults": minimal, "unlimited candidates": unlimited, "finalizer none": noneFinalizer,
	} {
		if err := spec.Normalize(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var again Spec
		if err := json.Unmarshal(data, &again); err != nil {
			t.Fatal(err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("%s: the normalized spec %s no longer validates: %v", name, data, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("%s: normalize → JSON → normalize gives %+v, want %+v (JSON %s)", name, again, spec, data)
		}
	}
	if unlimited.Normalize(); unlimited.MaxCandidates != -1 {
		t.Fatalf("max_candidates -1 normalizes to %d, want -1", unlimited.MaxCandidates)
	}
}
