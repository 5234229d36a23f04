package main

import (
	"reflect"
	"testing"
)

// TestDisagreementsNameEveryFailingRow: the gate names each sweep row whose
// engines classified differently, and only those.
func TestDisagreementsNameEveryFailingRow(t *testing.T) {
	rep := report{Sweep: []sweepRow{
		{Alphabet: 20, MeanLen: 40, LabelsIdentical: true},
		{Alphabet: 40, MeanLen: 90},
		{Alphabet: 20, MeanLen: 130, Banded: true},
	}}
	want := []string{
		"engine_sweep m=40 mean length 90 banded false labels_identical",
		"engine_sweep m=20 mean length 130 banded true labels_identical",
	}
	if got := rep.disagreements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("disagreements = %q, want %q", got, want)
	}
	rep.Sweep[1].LabelsIdentical, rep.Sweep[2].LabelsIdentical = true, true
	if got := rep.disagreements(); len(got) != 0 {
		t.Fatalf("agreeing sweep reports %q", got)
	}
}
