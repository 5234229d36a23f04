package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/miner"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// longLowRecipe is lspbench's long-low cell: 600 sequences of length
// 150–220 over 20 symbols, two motifs of length 10, 5% noise.
var longLowRecipe = recipe{n: 600, minLen: 150, maxLen: 220, m: 20, motifs: 2, motifLen: 10, plant: 0.55, alpha: 0.05, motifSeed: 202}

// longLowConfig is lspmine's library path with -workers -1 and the
// long-low parameters; engine, kernel and finalizer are the defaults.
func longLowConfig(seed int64, m *telemetry.Metrics) core.Config {
	return core.Config{
		MinMatch: 0.2, Delta: 1e-2, SampleSize: 300, MaxLen: 8, MaxGap: 1,
		MemBudget: 1000, MaxCandidatesPerLevel: 50000,
		Workers: runtime.GOMAXPROCS(0),
		Rng:     rand.New(rand.NewSource(seed)),
		Metrics: m,
	}
}

func runLongLow(o options) (*outcome, error) {
	seqs, c, err := longLowRecipe.scaled(o.scale).generate(o.seed)
	if err != nil {
		return nil, err
	}
	if err := checkPinned(o, "long-low", seqs); err != nil {
		return nil, err
	}
	mem := seqdb.NewMemDB(seqs)
	ops := opCount(o.seconds, 4.2)
	dir := runDir(o, "long-low")
	defer os.RemoveAll(filepath.Dir(dir))
	dbPath := filepath.Join(dir, "db.lsq")
	ctx := context.Background()

	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	type mined struct {
		res *core.Result
		err error
	}
	var results []mined
	var writeTimes []float64
	// mine runs operation i; traced operations get an op span with the
	// result's phase times placed beneath it and collect telemetry.
	mine := func(db seqdb.Scanner, i int, traced bool) (*core.Result, time.Duration) {
		var m *telemetry.Metrics
		opID := 0
		if traced {
			m = &telemetry.Metrics{}
			opID = tr.begin("op", 0, i)
		}
		t0 := time.Now()
		res, err := core.MineContext(ctx, db, c, longLowConfig(o.seed+int64(i), m))
		d := time.Since(t0)
		if traced {
			tr.end(opID)
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "perfbench: mine %d took %.3f s, %d scans\n", i, d.Seconds(), res.Scans)
		}
		results = append(results, mined{res, err})
		if traced && err == nil {
			phases := tr.sequence(opID, i, t0, []string{"core.phase1", "core.phase2", "core.phase3"},
				[]time.Duration{res.Phase1Time, res.Phase2Time, res.Phase3Time})
			// Phase 2's lattice levels, laid from the phase's start.
			var names []string
			var durs []time.Duration
			for k, ms := range res.Phase2.LevelMillis {
				names = append(names, fmt.Sprintf("miner.level%d", k+1))
				durs = append(durs, time.Duration(ms*float64(time.Millisecond)))
			}
			tr.sequence(phases[1], i, t0.Add(res.Phase1Time), names, durs)
		}
		return res, d
	}
	setup := func() (*seqdb.DiskDB, error) {
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
		db, err := seqdb.OpenFile(dbPath)
		if err != nil {
			return nil, err
		}
		mine(db, 0, false)
		return db, nil
	}
	db, setupS, err := repeatSetup(setup, func(*seqdb.DiskDB) error { return os.RemoveAll(dir) })
	if err != nil {
		return nil, err
	}

	// A traced run mines every operation twice, with and without telemetry,
	// alternating which goes first, to measure the collection overhead.
	var plain, traced time.Duration
	l := out.layers
	win := openWindow()
	for i := 1; i <= ops; i++ {
		settle()
		if !o.trace {
			_, d := mine(db, i, false)
			plain += d
			continue
		}
		for pass := 0; pass < 2; pass++ {
			withTrace := (pass == 0) == (i%2 == 0)
			if pass == 1 {
				settle()
			}
			res, d := mine(db, i, withTrace)
			if !withTrace {
				plain += d
				continue
			}
			traced += d
			if res != nil {
				snap := res.Telemetry.Snapshot()
				addSnapshot(l, &snap)
				l["core.phase1_s"] += res.Phase1Time.Seconds()
				l["core.phase2_s"] += res.Phase2Time.Seconds()
				l["core.phase3_s"] += res.Phase3Time.Seconds()
				l["core.other_s"] += (d - res.Phase1Time - res.Phase2Time - res.Phase3Time).Seconds()
				addLevels(l, res.Phase2.LevelMillis, 1/float64(ops))
			}
		}
	}
	win.close(out, ops)
	var passS float64
	if o.trace {
		if passS, err = barePass(db); err != nil {
			return nil, err
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}

	exact, err := refCache{filepath.Join(o.dir, "ref")}.exact(seqs,
		params("long-low", 0.2, 8, 1, longLowRecipe.m, longLowRecipe.alpha),
		func(db *seqdb.MemDB) ([]string, error) {
			res, err := exhaustive(db, c, 0.2, miner.Options{MaxLen: 8, MaxGap: 1})
			if err != nil {
				return nil, err
			}
			return keys(res.Frequent), nil
		})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		out.check(fmt.Sprintf("mine %d", i), verifyMine(r.res, r.err, exact))
	}
	n := float64(ops)
	for _, name := range []string{"core.phase1_s", "core.phase2_s", "core.phase3_s", "core.other_s"} {
		l[name] /= n
	}
	perOp(l, ops)
	out.e2e["setup_s"] = setupS
	out.e2e["mine_s"] = plain.Seconds() / n
	l["seqdb.write_s"] = median(writeTimes)
	l["seqdb.pass_s"] = passS
	if o.trace {
		out.e2e["mine_s"] = traced.Seconds() / n
		l["telemetry.overhead"] = ratio((traced - plain).Seconds(), plain.Seconds())
		for _, name := range []string{"proc.cpu_s", "proc.alloc_mb", "proc.gc_cycles"} {
			l[name] /= 2 // each operation ran twice inside the window
		}
	}
	l["seqdb.storage_share"] = l["seqdb.passes"] * passS / out.e2e["mine_s"]
	if o.trace {
		return out, finishTrace(o, out, tr)
	}
	return out, nil
}

// verifyMine checks one library mine: no error, not degraded, and the
// exact frequent set.
func verifyMine(res *core.Result, err error, exact []string) error {
	if err != nil {
		return err
	}
	if res.Degraded {
		return fmt.Errorf("degraded result (%s)", res.DegradeReason)
	}
	return sameSet(keys(res.Frequent), exact)
}
