package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// TestCatalogMatchesBenchmarkJSON checks that the metrics the benchmark
// prints are exactly the ones BENCHMARK.json declares, with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, printed []def) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		for i := range min(len(declared), len(printed)) {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s: no such workload", w.Name)
		}
	}
}

// TestPinnedDigests regenerates every workload's default-seed inputs, so a
// change to internal/datagen or a recipe fails here as well as in a run.
func TestPinnedDigests(t *testing.T) {
	o := options{seed: 1, scale: 1}
	for name, r := range map[string]recipe{"disk-probe": diskProbeRecipe, "long-low": longLowRecipe} {
		seqs, _, err := r.generate(o.seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPinned(o, name, seqs); err != nil {
			t.Error(err)
		}
	}
	seqs, _, err := ingestInputs(o.seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPinned(o, "ingest-follow", seqs); err != nil {
		t.Error(err)
	}
}

// keysOf returns the sorted keys of patterns given as symbol lists.
func keysOf(patterns ...[]pattern.Symbol) []string {
	set := pattern.NewSet()
	for _, syms := range patterns {
		set.Add(pattern.MustNew(syms...))
	}
	return keys(set)
}

func TestVerifierRejectsPlantedWrongSet(t *testing.T) {
	ab, bc, abc := []pattern.Symbol{0, 1}, []pattern.Symbol{1, 2}, []pattern.Symbol{0, 1, 2}
	exact := keysOf(ab, bc, abc)
	if err := sameSet(keysOf(ab, bc, abc), exact); err != nil {
		t.Fatalf("identical sets rejected: %v", err)
	}
	for _, planted := range [][]string{
		keysOf(ab, bc),                            // a pattern missing
		keysOf(ab, bc, abc, []pattern.Symbol{2}),  // an extra pattern
		keysOf(ab, bc, []pattern.Symbol{0, 1, 3}), // one swapped
	} {
		if err := sameSet(planted, exact); err == nil {
			t.Errorf("planted set %v accepted against %v", planted, exact)
		}
	}
	// The same check through a job's result document.
	doc, err := json.Marshal(jobs.Result{Frequent: []core.PatternReport{{Key: exact[0]}, {Key: exact[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	run := &jobRun{status: jobs.Status{ID: "j1", State: jobs.StateDone}, doc: doc}
	if _, err := verifyJob(run, nil, exact); err == nil {
		t.Error("job result missing a pattern accepted")
	}
}

func TestVerifierRejectsDegradedJob(t *testing.T) {
	exact := keysOf([]pattern.Symbol{0, 1})
	doc, err := json.Marshal(jobs.Result{Degraded: true, Frequent: []core.PatternReport{{Key: exact[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	run := &jobRun{status: jobs.Status{ID: "j1", State: jobs.StateDone, Degraded: true}, doc: doc}
	if _, err := verifyJob(run, nil, exact); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Errorf("degraded job: got %v, want a degraded-result failure", err)
	}
	failed := &jobRun{status: jobs.Status{ID: "j2", State: jobs.StateFailed, Error: "boom"}}
	if _, err := verifyJob(failed, nil, exact); err == nil {
		t.Error("failed job accepted")
	}
	if err := verifyMine(&core.Result{Degraded: true, DegradeReason: core.DegradePhase3Timeout}, nil, exact); err == nil {
		t.Error("degraded library mine accepted")
	}
}

func TestVerifierRejectsNon2xxAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := seqdb.OpenAppend(filepath.Join(dir, "live.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	d, err := startDaemon(dir, &jobs.AppendLog{DB: w})
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	out := newOutcome()
	out.check("good append", d.post("/v1/append", []byte(`{"sequences":[[1,2,3]]}`)))
	out.check("empty append", d.post("/v1/append", []byte(`{"sequences":[]}`)))
	if out.attempted != 2 || out.failed != 1 || !strings.Contains(out.failures[0], "status 400") {
		t.Errorf("attempted %d failed %d failures %v; want the 400 counted as the one failure", out.attempted, out.failed, out.failures)
	}
}

func TestCoverageFailsWhenSpanDropped(t *testing.T) {
	// A disk-probe operation: the client's calls under the op, the job's
	// queueing and run under the wait, the phases under the run.
	spans := []span{
		{ID: 1, Name: "op", Op: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 1, Name: "jobs.submit", Start: 0, End: 1},
		{ID: 3, Parent: 1, Op: 1, Name: "jobs.wait", Start: 1, End: 9.8},
		{ID: 4, Parent: 3, Op: 1, Name: "jobs.queue", Start: 1, End: 1.2, Derived: true},
		{ID: 5, Parent: 3, Op: 1, Name: "core.job", Start: 1.2, End: 9.75, Derived: true},
		{ID: 6, Parent: 5, Op: 1, Name: "core.phase1", Start: 1.2, End: 2, Derived: true},
		{ID: 7, Parent: 5, Op: 1, Name: "core.phase2", Start: 2, End: 3, Derived: true},
		{ID: 8, Parent: 5, Op: 1, Name: "core.phase3", Start: 3, End: 9.7, Derived: true},
		{ID: 9, Parent: 1, Op: 1, Name: "jobs.result", Start: 9.8, End: 10},
	}
	share, err := checkCoverage(spans)
	if err != nil || share > coverageTolerance {
		t.Fatalf("covered op: share %v, err %v", share, err)
	}
	self := selfTimes(spans)
	if got := self[3]; got < 0.049 || got > 0.051 {
		t.Errorf("jobs.wait self time %v, want 0.05 (its span minus queue and run)", got)
	}
	without := func(id int) []span {
		var out []span
		for _, s := range spans {
			if s.ID != id {
				out = append(out, s)
			}
		}
		return out
	}
	for id, name := range map[int]string{3: "jobs.wait", 5: "core.job", 8: "core.phase3"} {
		if _, err := checkCoverage(without(id)); err == nil {
			t.Errorf("coverage check passed with %s dropped", name)
		}
	}
	if _, err := checkCoverage(spans[1:]); err == nil {
		t.Error("coverage check passed without any op span")
	}
}

func TestRefCacheComputesOnce(t *testing.T) {
	rc := refCache{t.TempDir()}
	seqs := [][]pattern.Symbol{{1, 2, 3}, {2, 3}}
	calls := 0
	compute := func(*seqdb.MemDB) ([]string, error) { calls++; return []string{"k"}, nil }
	for i := 0; i < 2; i++ {
		ks, err := rc.exact(seqs, "p", compute)
		if err != nil || len(ks) != 1 || ks[0] != "k" {
			t.Fatalf("exact: %v %v", ks, err)
		}
	}
	if calls != 1 {
		t.Errorf("reference computed %d times, want once", calls)
	}
	if _, err := rc.exact(seqs, "other params", func(*seqdb.MemDB) ([]string, error) { return nil, errors.New("boom") }); err == nil {
		t.Error("different parameters hit the cached reference")
	}
}

// TestSmoke runs the benchmarked workloads at reduced size, untraced and
// traced, and checks the result line a caller parses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	smoke(t, "disk-probe", 0.05)
	smoke(t, "long-low", 0.5)
	smoke(t, "ingest-follow", 0.05)
}

// TestIngestExpireSmoke fails until internal/stream is fixed: a follower
// with a read-only handle on a log whose writer expires a window reads the
// handle's cached window start before refreshing it, so an Advance after
// an expiry mines a stale window, and the final set differs from a batch
// mine of the live window.
func TestIngestExpireSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	smoke(t, "ingest-expire", 0.05)
}

func smoke(t *testing.T, name string, scale float64) {
	t.Helper()
	for _, trace := range []bool{false, true} {
		o := options{workload: name, seed: 3, seconds: 1, trace: trace, dir: t.TempDir(), scale: scale}
		rep, err := run(o)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", name, trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
			t.Errorf("%s trace=%v: correct %v attempted %d failed %d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		catalog := endToEnd
		if trace {
			catalog = perLayer
		}
		if len(rep.Metrics) != len(catalog) {
			t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(catalog))
		}
		for _, d := range catalog {
			m, ok := rep.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.name, m)
			}
			if !trace && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.name, m.Value)
			}
		}
		if trace {
			path := filepath.Join(o.dir, "trace-"+name+"-seed3.json")
			var a traceArtifact
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &a)
			}
			if err != nil || len(a.Spans) == 0 || len(a.Layers) == 0 {
				t.Errorf("%s: trace artifact %s: %v (%d spans)", name, path, err, len(a.Spans))
			}
		}
		line, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(line, &top); err != nil || len(top) != 4 {
			t.Errorf("%s: report line %s has keys %v, want correct, attempted, failed, metrics", name, line, top)
		}
	}
}
