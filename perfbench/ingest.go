package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// ingestRecipe is the base recipe streamed in chunks: sequences of length
// 24–40 over 20 symbols, three motifs of length 5, 5% noise.
var ingestRecipe = recipe{n: ingestChunk, minLen: 24, maxLen: 40, m: 20, motifs: 3, motifLen: 5, plant: 0.4, alpha: 0.05, motifSeed: 303}

const (
	ingestWindow   = 20000                        // sequences set-up appends; ingest-expire's writer window
	ingestBatch    = 100                          // sequences per POST /v1/append
	ingestPerRound = 10                           // appends per timed round
	ingestChunk    = ingestBatch * ingestPerRound // sequences per round
)

// ingestConfig is lspmine -follow's library path: min_match 0.2, max_len 6,
// max_gap 0, default δ, sample and budget, GOMAXPROCS workers.
func ingestConfig(seed int64, m *telemetry.Metrics) core.StreamConfig {
	return core.StreamConfig{
		Config: core.Config{
			MinMatch: 0.2, MaxLen: 6, MaxGap: 0, MaxCandidatesPerLevel: 50000,
			Workers: runtime.GOMAXPROCS(0), Metrics: m,
		},
		Seed: seed,
	}
}

// ingestInputs generates the set-up window and one chunk per round. Each
// chunk has its own seed, so the inputs do not depend on the round count.
func ingestInputs(seed int64, rounds int) ([][]pattern.Symbol, *compat.Matrix, error) {
	var seqs [][]pattern.Symbol
	var c *compat.Matrix
	for j := 0; j < ingestWindow/ingestChunk+rounds; j++ {
		part, cm, err := ingestRecipe.generate(seed*1_000_003 + int64(j))
		if err != nil {
			return nil, nil, err
		}
		seqs, c = append(seqs, part...), cm
	}
	return seqs, c, nil
}

// follower is one core.Stream over its own read-only handle on the log.
type follower struct {
	db   *seqdb.AppendDB
	st   *core.Stream
	m    *telemetry.Metrics
	last *pattern.Set
	// expired sums the results' Expired counts: the absolute id the
	// follower's consumed window starts at.
	expired int
}

func newFollower(path string, c compat.Source, seed int64, m *telemetry.Metrics) (*follower, error) {
	db, err := seqdb.OpenAppendRead(path)
	if err != nil {
		return nil, err
	}
	st, err := core.NewStream(db, c, ingestConfig(seed, m))
	if err != nil {
		db.Close()
		return nil, err
	}
	return &follower{db: db, st: st, m: m}, nil
}

type ingest struct {
	writer    *seqdb.AppendDB
	d         *daemon
	followers []*follower // [plain] or [plain, traced]
}

func (g *ingest) close() error {
	err := g.d.stop()
	for _, f := range g.followers {
		err = errors.Join(err, f.db.Close())
	}
	return errors.Join(err, g.writer.Close())
}

// runIngest runs ingest-follow (window 0: the log only grows) or
// ingest-expire (the writer keeps the newest window sequences live, as
// lspserve -append-window does).
func runIngest(o options, window int) (*outcome, error) {
	rounds := opCount(o.seconds, 0.3)
	seqs, c, err := ingestInputs(o.seed, rounds)
	if err != nil {
		return nil, err
	}
	if window > 0 {
		window = max(ingestBatch, int(math.Round(float64(window)*o.scale)))
	}
	if err := checkPinned(o, "ingest-follow", seqs[:ingestWindow]); err != nil {
		return nil, err
	}
	// A scaled run keeps the batch shape and sends only every batch's head.
	batch := max(1, int(math.Round(ingestBatch*o.scale)))
	var bodies [][]byte
	for lo := 0; lo < len(seqs); lo += ingestBatch {
		b, err := json.Marshal(map[string]any{"sequences": seqs[lo : lo+batch]})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	setupBodies := ingestWindow / ingestBatch
	dir := runDir(o, o.workload)
	defer os.RemoveAll(filepath.Dir(dir))
	logPath := filepath.Join(dir, "live.lsa")
	ctx := context.Background()

	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var writeTimes []float64
	setup := func() (*ingest, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		g := &ingest{}
		id := tr.begin("seqdb.create", 0, -1)
		t0 := time.Now()
		w, err := seqdb.OpenAppend(logPath)
		writeTimes = append(writeTimes, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		g.writer = w
		if g.d, err = startDaemon(dir, &jobs.AppendLog{DB: w, Window: window}); err != nil {
			w.Close()
			return nil, err
		}
		for i := 0; i < setupBodies; i++ {
			err := g.d.post("/v1/append", bodies[i])
			out.check(fmt.Sprintf("set-up append %d", i), err)
			if err != nil {
				return nil, errors.Join(err, g.close())
			}
		}
		metrics := []*telemetry.Metrics{nil}
		if o.trace {
			metrics = append(metrics, &telemetry.Metrics{})
		}
		for _, m := range metrics {
			f, err := newFollower(logPath, c, o.seed, m)
			if err != nil {
				return nil, errors.Join(err, g.close())
			}
			g.followers = append(g.followers, f)
			res, err := f.st.Advance(ctx)
			out.check("warm-up advance", err)
			if err != nil {
				return nil, errors.Join(err, g.close())
			}
			f.expired = res.Expired
		}
		return g, nil
	}
	teardown := func(g *ingest) error { return errors.Join(g.close(), os.RemoveAll(dir)) }
	g, setupS, err := repeatSetup(setup, teardown)
	if err != nil {
		return nil, err
	}
	measured := g.followers[len(g.followers)-1]
	// The traced follower's telemetry is cumulative; the timed rounds are
	// the difference from here.
	var before map[string]float64
	if measured.m != nil {
		snap := measured.m.Snapshot()
		before = snapshotValues(&snap)
	}

	var appendS, advanceS []float64
	var plain, traced time.Duration
	var scans, remines, shifts, reprobes float64
	l := out.layers
	advance := func(f *follower, parent, op int, name string) (time.Duration, error) {
		id := tr.begin(name, parent, op)
		t0 := time.Now()
		res, err := f.st.Advance(ctx)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return d, err
		}
		f.last = res.Frequent
		if f == measured {
			fmt.Fprintf(os.Stderr, "perfbench: advance %d took %.3f s, %d scans, remined %v, shifted %v\n",
				op, d.Seconds(), res.Scans, res.Remined, res.BorderShifted)
			scans += float64(res.Scans)
			if res.Remined {
				remines++
			}
			if res.BorderShifted {
				shifts++
			}
			reprobes += float64(res.ReprobesAvoided)
			if res.Remined && res.Phase2 != nil {
				addLevels(l, res.Phase2.LevelMillis, 1/float64(rounds))
			}
		}
		// The client is closed-loop, so the log holds still while the
		// follower advances: it must have consumed exactly the live window.
		f.expired += res.Expired
		if start, total := g.writer.Start(), g.writer.Total(); f.expired != start || res.Total != total {
			return d, fmt.Errorf("follower consumed the window [%d, %d), the log's live window is [%d, %d)",
				f.expired, res.Total, start, total)
		}
		return d, nil
	}
	win := openWindow()
	for i := 1; i <= rounds; i++ {
		opID := tr.begin("op", 0, i)
		for j := 0; j < ingestPerRound; j++ {
			b := setupBodies + (i-1)*ingestPerRound + j
			id := tr.begin("jobs.append", opID, i)
			t0 := time.Now()
			err := g.d.post("/v1/append", bodies[b])
			appendS = append(appendS, time.Since(t0).Seconds())
			tr.end(id)
			out.check(fmt.Sprintf("append %d", b), err)
		}
		// A traced run also advances an untraced follower, alternating
		// which goes first, to measure the collection overhead.
		order := g.followers
		if len(order) == 2 && i%2 == 0 {
			order = []*follower{order[1], order[0]}
		}
		for _, f := range order {
			name := "stream.advance"
			if f != measured {
				name = "telemetry.baseline_advance"
			}
			d, err := advance(f, opID, i, name)
			out.check(fmt.Sprintf("advance %d", i), err)
			if f == measured {
				advanceS = append(advanceS, d.Seconds())
				traced += d
			} else {
				plain += d
			}
		}
		tr.end(opID)
	}
	win.close(out, rounds)
	var passS float64
	if o.trace {
		if passS, err = barePass(measured.db); err != nil {
			return nil, errors.Join(err, teardown(g))
		}
	}
	bytesRead := measured.db.BytesRead()

	// The follower's final set must equal a batch mine of the live window.
	total := ingestWindow + rounds*ingestChunk
	var live [][]pattern.Symbol
	for lo := 0; lo < total; lo += ingestBatch {
		live = append(live, seqs[lo:lo+batch]...)
	}
	if window > 0 {
		live = live[max(0, len(live)-window):]
	}
	if len(live) != measured.db.Len() {
		err = fmt.Errorf("live window holds %d sequences, the log %d", len(live), measured.db.Len())
	}
	if err := teardown(g); err != nil {
		return nil, err
	}
	cfg := ingestConfig(o.seed, nil).Config
	cfg.Rng = rand.New(rand.NewSource(o.seed))
	ref, mineErr := core.Mine(seqdb.NewMemDB(live), c, cfg)
	for _, f := range g.followers {
		verr := errors.Join(err, mineErr)
		if verr == nil {
			verr = sameSet(keys(f.last), keys(ref.Frequent))
		}
		out.check("final set vs batch mine of the live window", verr)
	}

	n := float64(rounds)
	out.e2e["setup_s"] = setupS
	out.e2e["mine_s"] = mean(advanceS)
	l["seqdb.write_s"] = median(writeTimes)
	l["seqdb.expired"] = float64(measured.expired)
	l["jobs.append_s"] = median(appendS)
	l["jobs.append_p95_s"] = quantile(appendS, 0.95)
	l["jobs.append_kb"] = float64(len(bodies[setupBodies])) / 1024
	l["stream.remines"] = remines
	l["stream.border_shifts"] = shifts
	l["stream.reprobes_avoided"] = reprobes
	l["stream.scans"] = scans
	l["stream.remine_ratio"] = remines / n
	if measured.m != nil {
		snap := measured.m.Snapshot()
		for name, v := range snapshotValues(&snap) {
			l[name] += v - before[name]
		}
		perOp(l, rounds)
		// Peaks and the mean probe batch are not per-round sums.
		l["miner.peak_candidates"] = float64(snap.PeakCandidates)
		l["match.kernel_peak_mb"] = float64(snap.KernelPeakBytes) / mib
		l["border.probe_batch_mean"] = snap.ProbeBatch.Mean
		l["telemetry.overhead"] = ratio((traced - plain).Seconds(), plain.Seconds())
		for _, name := range []string{"proc.cpu_s", "proc.alloc_mb", "proc.gc_cycles"} {
			l[name] /= 2 // both followers advanced inside the window
		}
	}
	// The follower's passes are window scans; its telemetry has no phases.
	l["seqdb.passes"] = scans / n
	l["seqdb.bytes_read"] = float64(bytesRead) / n
	l["seqdb.pass_s"] = passS
	l["seqdb.storage_share"] = scans / n * passS / out.e2e["mine_s"]
	if o.trace {
		return out, finishTrace(o, out, tr)
	}
	return out, nil
}
