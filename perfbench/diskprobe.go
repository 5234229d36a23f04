package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/jobs"
	"repro/internal/miner"
	"repro/internal/seqdb"
)

// diskProbeRecipe: 30,000 sequences of length 30–50 over 20 symbols, two
// planted motifs of length 8, 5% uniform noise — a 1.4 MB LSQ2 file.
var diskProbeRecipe = recipe{n: 30000, minLen: 30, maxLen: 50, m: 20, motifs: 2, motifLen: 8, plant: 0.5, alpha: 0.05, motifSeed: 101}

// diskProbeSpec is the job every disk-probe operation submits; the daemon's
// defaults fill the rest (δ 1e-4, sample 1000, one worker slot, level-wise
// engine, incremental kernel, border collapsing).
func diskProbeSpec(db, matrix string, seed int64) jobs.Spec {
	return jobs.Spec{DB: db, Matrix: matrix, MinMatch: 0.25, MaxLen: 8, MaxGap: 1, MemBudget: 32, Seed: seed}
}

func runDiskProbe(o options) (*outcome, error) {
	seqs, c, err := diskProbeRecipe.scaled(o.scale).generate(o.seed)
	if err != nil {
		return nil, err
	}
	if err := checkPinned(o, "disk-probe", seqs); err != nil {
		return nil, err
	}
	mem := seqdb.NewMemDB(seqs)
	ops := opCount(o.seconds, 2.5)
	dir := runDir(o, "disk-probe")
	defer os.RemoveAll(filepath.Dir(dir))
	dbPath, matrixPath := filepath.Join(dir, "db.lsq"), filepath.Join(dir, "matrix.txt")
	// Operation 0 is every set-up's warm-up and operations 1..ops are timed.
	// Specs are encoded before any timing starts.
	bodies := make([][]byte, 1+ops)
	for i := range bodies {
		if bodies[i], err = json.Marshal(diskProbeSpec(dbPath, matrixPath, o.seed+int64(i))); err != nil {
			return nil, err
		}
	}

	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var runs []*jobRun
	var runErrs []error
	var writeTimes []float64
	record := func(run *jobRun, err error) {
		runs = append(runs, run)
		runErrs = append(runErrs, err)
	}
	setup := func() (*daemon, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		id := tr.begin("seqdb.write", 0, -1)
		t0 := time.Now()
		err := seqdb.WriteFile(dbPath, mem)
		writeTimes = append(writeTimes, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if err := writeMatrix(matrixPath, c); err != nil {
			return nil, err
		}
		id = tr.begin("jobs.start", 0, -1)
		d, err := startDaemon(dir, nil)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		record(jobOp(tr, d, 0, bodies[0]))
		return d, nil
	}
	teardown := func(d *daemon) error {
		err := d.stop()
		return errors.Join(err, os.RemoveAll(dir))
	}
	d, setupS, err := repeatSetup(setup, teardown)
	if err != nil {
		return nil, err
	}
	warmups := len(runs)

	win := openWindow()
	var wall time.Duration
	for i := 1; i <= ops; i++ {
		settle()
		t0 := time.Now()
		record(jobOp(tr, d, i, bodies[i]))
		wall += time.Since(t0)
	}
	win.close(out, ops)

	var passS float64
	if o.trace {
		disk, err := seqdb.OpenFile(dbPath)
		if err == nil {
			passS, err = barePass(disk)
		}
		if err != nil {
			return nil, errors.Join(err, teardown(d))
		}
	}
	if err := teardown(d); err != nil {
		return nil, err
	}

	// Verification runs after the timed operations and the peak-memory read.
	exact, err := refCache{filepath.Join(o.dir, "ref")}.exact(seqs,
		params("disk-probe", 0.25, 8, 1, diskProbeRecipe.m, diskProbeRecipe.alpha),
		func(db *seqdb.MemDB) ([]string, error) {
			res, err := exhaustive(db, c, 0.25, miner.Options{MaxLen: 8, MaxGap: 1})
			if err != nil {
				return nil, err
			}
			return keys(res.Frequent), nil
		})
	if err != nil {
		return nil, err
	}
	l := out.layers
	for i, run := range runs {
		doc, err := verifyJob(run, runErrs[i], exact)
		out.check(fmt.Sprintf("job %d", i), err)
		if i < warmups || doc == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: job %d took %.3f s, %d scans\n", i-warmups+1, run.fetched.Sub(run.sent).Seconds(), doc.Scans)
		st := run.status
		if st.Telemetry != nil {
			addSnapshot(l, st.Telemetry)
			p := phaseTimes(st.Telemetry)
			l["core.phase1_s"] += p[0].Seconds()
			l["core.phase2_s"] += p[1].Seconds()
			l["core.phase3_s"] += p[2].Seconds()
			l["core.other_s"] += secs(float64(st.FinishedMs-st.StartedMs)) - (p[0] + p[1] + p[2]).Seconds()
		}
		l["jobs.submit_s"] += run.accepted.Sub(run.sent).Seconds()
		l["jobs.queue_s"] += secs(float64(st.StartedMs - st.SubmittedMs))
		l["jobs.run_s"] += secs(float64(st.FinishedMs - st.StartedMs))
		l["jobs.notify_s"] += run.seen.Sub(time.UnixMilli(st.FinishedMs)).Seconds()
		l["jobs.result_s"] += run.fetched.Sub(run.seen).Seconds()
		l["jobs.result_kb"] += float64(len(run.doc)) / 1024
	}
	n := float64(ops)
	for _, name := range []string{"core.phase1_s", "core.phase2_s", "core.phase3_s", "core.other_s",
		"jobs.submit_s", "jobs.queue_s", "jobs.run_s", "jobs.notify_s", "jobs.result_s", "jobs.result_kb"} {
		l[name] /= n
	}
	perOp(l, ops)
	out.e2e["setup_s"] = setupS
	out.e2e["mine_s"] = wall.Seconds() / n
	l["seqdb.write_s"] = median(writeTimes)
	l["seqdb.pass_s"] = passS
	l["seqdb.storage_share"] = l["seqdb.passes"] * passS / out.e2e["mine_s"]
	if o.trace {
		return out, finishTrace(o, out, tr)
	}
	return out, nil
}

// jobOp runs one job as an operation span with the daemon-side intervals
// the job's status reports placed beneath its wait: queueing, then the run
// with its three phases.
func jobOp(tr *tracer, d *daemon, op int, body []byte) (*jobRun, error) {
	opID := tr.begin("op", 0, op)
	run, err := d.runJob(tr, opID, op, body)
	tr.end(opID)
	if tr != nil && run != nil && run.status.Telemetry != nil {
		st := run.status
		started, finished := time.UnixMilli(st.StartedMs), time.UnixMilli(st.FinishedMs)
		tr.derived("jobs.queue", run.waitSpan, op, time.UnixMilli(st.SubmittedMs), started)
		mineID := tr.derived("core.job", run.waitSpan, op, started, finished)
		p := phaseTimes(st.Telemetry)
		tr.sequence(mineID, op, started, []string{"core.phase1", "core.phase2", "core.phase3"}, p[:])
	}
	return run, err
}

// verifyJob checks one job: no error, done and not degraded, and a result
// document whose frequent set is the exact set.
func verifyJob(run *jobRun, err error, exact []string) (*jobs.Result, error) {
	if err != nil {
		return nil, err
	}
	if run.status.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", run.status.ID, run.status.State, run.status.Error)
	}
	var doc jobs.Result
	if err := json.Unmarshal(run.doc, &doc); err != nil {
		return nil, fmt.Errorf("result document: %w", err)
	}
	if doc.Degraded || run.status.Degraded {
		return &doc, fmt.Errorf("job %s returned a degraded result", run.status.ID)
	}
	got := make([]string, 0, len(doc.Frequent))
	for _, p := range doc.Frequent {
		got = append(got, p.Key)
	}
	sort.Strings(got)
	return &doc, sameSet(got, exact)
}
