// Command lspmine mines the frequent long sequential patterns of a sequence
// database under the match model, using the paper's three-phase
// probabilistic algorithm.
//
// Usage:
//
//	lspmine -db test.lsq -matrix compat.txt -min-match 0.01 \
//	        [-max-len 8] [-max-gap 1] [-sample 1000] [-delta 1e-4] \
//	        [-budget 10000] [-finalizer collapse|levelwise|none] [-seed 1] \
//	        [-workers -1] [-retries 3] [-retry-base 10ms] [-retry-cap 1s] \
//	        [-checkpoint run.lckp] [-resume] [-phase-timeout 30s] \
//	        [-phase3-nodes http://a:8427,http://b:8427] [-auth-token T] \
//	        [-phase3-hedge 0] [-rpc-timeout 0] \
//	        [-all] [-v] [-metrics json|text] \
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -phase3-nodes distributes Phase 3's probe scans over remote lspserve
// shard workers (started with -serve-shards over the same database): each
// probe batch is scattered shard-by-shard across the nodes and gathered
// deterministically, so the mined result is bit-identical to a local run.
// Node failures are retried with full-jitter backoff and reassigned to
// healthy nodes; -phase3-hedge launches a duplicate probe on a second node
// when the first dawdles past the given duration, and -rpc-timeout bounds
// each attempt. A shard no node can serve degrades the run gracefully
// (confirmed set + Chernoff intervals, resumable from -checkpoint) instead
// of failing it. -retry-base/-retry-cap shape both the local retrying
// scanner's backoff and the shard RPC retry backoff.
//
// The level-wise Phase 2 scores each lattice level by extending the
// previous level's projected sample databases (one multiply per surviving
// window), building and valuing across -workers goroutines. Its cache
// statistics appear in -metrics output as the kernel_* fields.
//
// Phase 2's engine is picked from the sample: when its mean sequence length
// is at least 3× the alphabet size, the depth-first pattern-growth engine
// replaces the breadth-first candidate miner. Patterns then grow by prefix
// extension over projected sample databases with optimistic bound pruning,
// producing the same labels and borders — bit-identical for every -workers
// count — and a level over -max-candidates hands Phase 2 back to the
// candidate miner, whose truncation defines the result. -v names the engine
// that ran; growth statistics appear in -metrics output as the growth_*
// fields.
//
// -metrics collects pipeline telemetry (per-phase scan traffic and wall
// time, lattice and probe counters) and prints it to stderr; the same
// snapshot rides inside -json reports as the "telemetry" object. -cpuprofile
// and -memprofile write pprof profiles for offline analysis.
//
// -follow turns the run into a streaming session over an append-only log
// (.lsa, written by lspappend or lspserve -append-log): instead of one batch
// mine, lspmine tails the log read-only, consuming newly appended sequences
// every -poll interval and re-mining incrementally — a batch that brings
// sequences re-mines the sample from the members it changed, an empty one
// keeps the last mine ("phase2 cached"), and both serve Phase 3 probes from
// cached exact sums. Each processed batch prints one summary line; with -v
// it also prints the set whenever it differs from the set last printed
// (Phase 3 resolves ambiguous patterns against the grown window on every
// batch, so the set can change while Phase 2's labels stay put) and on the
// last batch of a bounded run.
// -follow-batches N exits after N advances (0 = run until signalled). A
// follower's re-mines value the sample from kept per-member matches, not
// through the projection kernel, so its -metrics show stream_* counters
// (stream_rescored_members among them) and no kernel_* fields. With
// -checkpoint the stream state is persisted after every advance and -resume
// continues a killed follower bit-identically, catching up on sequences
// appended while it was down.
// Sliding-window expiry belongs to the log's writer (lspappend -window,
// lspserve -append-window); the read-only follower inherits it.
//
// -checkpoint persists progress to the given file (crash-atomically, after
// every phase and every Phase 3 probe scan); -resume restarts a killed run
// from that file, skipping every full scan it records. -phase-timeout bounds
// Phase 3's wall time: on expiry the run degrades gracefully, reporting the
// frequent set confirmed so far plus the still-ambiguous patterns with their
// Chernoff intervals, instead of failing.
//
// Exit codes: 0 complete result, 1 error, 2 usage, 3 degraded result (the
// Phase 3 budget expired; output is the confirmed set, and -metrics reports
// degraded=true — resume with -checkpoint/-resume to finish), 130
// interrupted by signal.
//
// SIGINT/SIGTERM cancel the run cleanly: the run aborts within one sequence
// block, a final checkpoint is flushed when -checkpoint is set, and the
// partial result (phase reached, scans completed) is reported instead of
// dying mid-scan. A second SIGINT/SIGTERM during that shutdown forces an
// immediate exit, skipping the final checkpoint flush. -retries wraps the
// database in a seqdb.RetryScanner that re-runs passes hit by transient I/O
// failures with capped exponential backoff (the backoff itself is
// interruptible).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func main() {
	dbPath := flag.String("db", "", "sequence database (binary .lsq format; comma-separated paths open a multi-file shard set)")
	matrixPath := flag.String("matrix", "", "compatibility matrix (text format)")
	minMatch := flag.Float64("min-match", 0.01, "match threshold")
	maxLen := flag.Int("max-len", 8, "maximum pattern length")
	maxGap := flag.Int("max-gap", 1, "maximum run of * inside a pattern")
	sample := flag.Int("sample", 1000, "Phase 1 sample size")
	delta := flag.Float64("delta", 1e-4, "Chernoff failure probability (confidence = 1-delta)")
	budget := flag.Int("budget", 10000, "Phase 3 pattern counters per scan")
	maxCand := flag.Int("max-candidates", 50000, "Phase 2 per-level candidate cap (0 = unlimited; dense matrices explode without one)")
	finalizer := flag.String("finalizer", "collapse", "Phase 3 strategy: collapse, levelwise or none")
	workers := flag.Int("workers", -1, "worker goroutines sharding Phase 2's sample and Phase 3's probe counting (-1 = all cores, 0/1 = sequential, though 0 still scans a shard set's files concurrently; results are identical for every count)")
	retries := flag.Int("retries", 0, "retry transient scan failures up to this many times per pass (0 = no retrying); also caps shard RPC attempts with -phase3-nodes")
	retryBase := flag.Duration("retry-base", 0, "base delay of retry backoff — both the retrying scanner's and the shard RPC's (0 = 10ms)")
	retryCap := flag.Duration("retry-cap", 0, "delay cap of retry backoff (0 = 1s)")
	phase3Nodes := flag.String("phase3-nodes", "", "comma-separated lspserve shard-worker base URLs; Phase 3 probe scans scatter across them (bit-identical to a local run)")
	authToken := flag.String("auth-token", "", "bearer token sent to -phase3-nodes workers")
	phase3Hedge := flag.Duration("phase3-hedge", 0, "hedge a straggling shard probe on a second node after this long (0 = no hedging)")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "per-attempt timeout of shard probe RPCs (0 = none; the phase budget still applies)")
	ckptPath := flag.String("checkpoint", "", "persist progress to this snapshot file (crash-atomic; resumable with -resume)")
	resume := flag.Bool("resume", false, "resume from the -checkpoint snapshot, skipping every full scan it records")
	phaseTimeout := flag.Duration("phase-timeout", 0, "Phase 3 wall-clock budget; on expiry the run degrades gracefully instead of failing (0 = unlimited)")
	seed := flag.Int64("seed", 1, "random seed for sampling")
	follow := flag.Bool("follow", false, "stream: tail the append-only log named by -db, mining incrementally as sequences arrive")
	poll := flag.Duration("poll", 2*time.Second, "polling interval between follow advances")
	followBatches := flag.Int("follow-batches", 0, "exit after this many follow advances (0 = run until signalled)")
	all := flag.Bool("all", false, "print every frequent pattern, not only the border")
	jsonOut := flag.Bool("json", false, "emit a JSON report instead of text")
	metricsOut := flag.String("metrics", "", "collect pipeline telemetry and print it to stderr: json or text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	verbose := flag.Bool("v", false, "print phase statistics")
	flag.Parse()

	switch *metricsOut {
	case "", "json", "text":
	default:
		fatal(fmt.Errorf("unknown -metrics format %q (want json or text)", *metricsOut))
	}
	fin, err := core.ParseFinalizer(*finalizer)
	if err != nil {
		fatal(err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *dbPath == "" || *matrixPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	db, err := seqdb.OpenAuto(*dbPath)
	if err != nil {
		fatal(err)
	}
	adb, _ := db.(*seqdb.AppendDB)
	if *follow && adb == nil {
		fatal(errors.New("-follow requires -db to name a single append-only log (.lsa)"))
	}
	if *retryBase < 0 || *retryCap < 0 || (*retryBase > 0 && *retryCap > 0 && *retryCap < *retryBase) {
		fatal(errors.New("-retry-cap must be >= -retry-base, both non-negative"))
	}
	if *retries > 0 {
		// Full-jitter backoff: seeded from -seed so runs stay reproducible,
		// while concurrent miners hitting one flaky store spread their
		// retries instead of re-hammering it in lockstep.
		db = &seqdb.RetryScanner{
			Inner:      db,
			MaxRetries: *retries,
			BaseDelay:  *retryBase,
			MaxDelay:   *retryCap,
			Jitter:     rand.New(rand.NewSource(*seed)),
		}
	}
	mf, err := os.Open(*matrixPath)
	if err != nil {
		fatal(err)
	}
	c, err := compat.ReadFrom(mf)
	mf.Close()
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the mining context: the run aborts within one
	// sequence block, flushes a final checkpoint when -checkpoint is set,
	// and reports the partial result instead of dying mid-scan. A second
	// signal during that shutdown forces an immediate exit (no final
	// checkpoint).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "lspmine: second signal — exiting immediately, skipping the final checkpoint")
		os.Exit(130)
	}()

	var metrics *telemetry.Metrics
	if *metricsOut != "" {
		metrics = &telemetry.Metrics{}
	}
	if *follow {
		scfg := core.StreamConfig{
			Config: core.Config{
				MinMatch:              *minMatch,
				Delta:                 *delta,
				SampleSize:            *sample,
				MaxLen:                *maxLen,
				MaxGap:                *maxGap,
				MaxCandidatesPerLevel: *maxCand,
				MemBudget:             *budget,
				Workers:               *workers,
				Metrics:               metrics,
			},
			Seed:           *seed,
			CheckpointPath: *ckptPath,
		}
		runFollow(ctx, adb, c, scfg, *resume, *poll, *followBatches, *all, *verbose, metrics, *metricsOut)
		return
	}
	cfg := core.Config{
		MinMatch:              *minMatch,
		Delta:                 *delta,
		SampleSize:            *sample,
		MaxLen:                *maxLen,
		MaxGap:                *maxGap,
		MaxCandidatesPerLevel: *maxCand,
		MemBudget:             *budget,
		Finalizer:             fin,
		Workers:               *workers,
		Rng:                   rand.New(rand.NewSource(*seed)),
		Metrics:               metrics,
		PhaseTimeouts:         core.PhaseTimeouts{Phase3: *phaseTimeout},
	}
	if *ckptPath != "" {
		cfg.Checkpoint = &core.CheckpointPolicy{Path: *ckptPath, Seed: *seed}
	}
	if *phase3Nodes != "" {
		var clients []*shardrpc.Client
		for _, u := range strings.Split(*phase3Nodes, ",") {
			if u = strings.TrimSpace(u); u != "" {
				if !strings.Contains(u, "://") {
					u = "http://" + u
				}
				clients = append(clients, &shardrpc.Client{BaseURL: u, AuthToken: *authToken})
			}
		}
		if len(clients) == 0 {
			fatal(errors.New("-phase3-nodes lists no nodes"))
		}
		// One shard per node, or the shards of a native shard set; the
		// block-aligned gather makes the result identical either way.
		cfg.Remote = &shardrpc.Pool{
			Clients:    clients,
			Retry:      shardrpc.RetryPolicy{MaxAttempts: *retries, Base: *retryBase, Cap: *retryCap},
			Timeout:    *rpcTimeout,
			HedgeAfter: *phase3Hedge,
			Jitter:     rand.New(rand.NewSource(*seed)),
			Metrics:    metrics,
		}
	}
	var res *core.Result
	if *resume {
		if *ckptPath == "" {
			fatal(errors.New("-resume requires -checkpoint"))
		}
		res, err = core.Resume(ctx, *ckptPath, db, c, cfg)
	} else {
		res, err = core.MineContext(ctx, db, c, cfg)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			reportInterrupted(err, res, db, *ckptPath)
		}
		fatal(err)
	}

	a := pattern.GenericAlphabet(c.Size())
	if *jsonOut {
		rep, err := core.NewReport(res, *minMatch, db.Len(), a)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		finish(metrics, res, *metricsOut)
		return
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "lspmine: %s; degraded result with %d unresolved patterns (resume with -resume to finish)\n",
			degradeCause(res), len(res.Unresolved))
	}
	if *verbose {
		fmt.Printf("sequences: %d, sample: %d, scans: %d\n", db.Len(), res.SampleSize, res.Scans)
		if res.ResumedFrom > 0 {
			fmt.Printf("resumed from phase %d checkpoint: %d of those scans skipped\n", res.ResumedFrom, res.ScansSkipped)
		}
		if st := res.ScanStats; st.Retries > 0 || st.Permanent > 0 {
			fmt.Printf("scan attempts: %d (%d retried after transient failures)\n", st.Attempts, st.Retries)
		}
		fmt.Printf("phase 2: %d frequent, %d ambiguous (%s, %v)\n",
			res.Phase2.Frequent.Len(), res.Phase2.Ambiguous.Len(), res.Phase2Engine, res.Phase2Time.Round(1e6))
		if res.Phase2.Truncated {
			fmt.Println("phase 2: candidate cap hit; result is complete only for the explored space")
		}
		if res.Phase3 != nil {
			fmt.Printf("phase 3: %d probed in %d scans (%v)\n",
				res.Phase3.Probed, res.Phase3.Scans, res.Phase3Time.Round(1e6))
		}
	}
	set := res.Border
	label := "border"
	if *all {
		set, label = res.Frequent, "frequent"
	}
	fmt.Printf("%s patterns (%d):\n", label, set.Len())
	for _, p := range set.Patterns() {
		fmt.Println("  ", a.Format(p))
	}
	if res.Degraded {
		fmt.Printf("unresolved patterns (%d, %s; true match within ±ε at confidence 1-δ):\n",
			len(res.Unresolved), degradeCause(res))
		for _, u := range res.Unresolved {
			fmt.Printf("   %s  sample=%.4f ε=%.4f\n", a.Format(u.Pattern), u.SampleMatch, u.Epsilon)
		}
	}
	finish(metrics, res, *metricsOut)
}

// runFollow tails the append log: one Advance per -poll tick, reported by
// followReport. A signal stops the follower cleanly — with -checkpoint every
// advance is already persisted, so the next -follow -resume picks up where
// this one stopped, including anything appended in between.
func runFollow(ctx context.Context, db *seqdb.AppendDB, c compat.Source, cfg core.StreamConfig, resume bool, poll time.Duration, maxBatches int, all, verbose bool, metrics *telemetry.Metrics, metricsOut string) {
	var st *core.Stream
	var err error
	if resume {
		if cfg.CheckpointPath == "" {
			fatal(errors.New("-resume requires -checkpoint"))
		}
		st, err = core.ResumeStream(cfg.CheckpointPath, db, c, cfg)
	} else {
		st, err = core.NewStream(db, c, cfg)
	}
	if err != nil {
		fatal(err)
	}
	rep := &followReport{w: os.Stdout, a: pattern.GenericAlphabet(c.Size()), all: all, verbose: verbose}
	for batch := 1; ; batch++ {
		res, err := st.Advance(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				break
			}
			fatal(err)
		}
		rep.batch(batch, res, maxBatches > 0 && batch == maxBatches)
		if maxBatches > 0 && batch >= maxBatches {
			break
		}
		select {
		case <-ctx.Done():
			goto stopped
		case <-time.After(poll):
		}
	}
stopped:
	if metrics != nil {
		snap := metrics.Snapshot()
		var err error
		if metricsOut == "json" {
			err = snap.WriteJSON(os.Stderr)
		} else {
			err = snap.WriteText(os.Stderr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lspmine: metrics:", err)
		}
	}
}

// followReport prints a follower's batches: one summary line each and, with
// verbose, the border (the frequent set with all) whenever it differs from
// the set last printed, and on a bounded run's last batch, so scripts get the
// final set even when it did not change.
type followReport struct {
	w            io.Writer
	a            *pattern.Alphabet
	all, verbose bool
	shown        []pattern.Pattern // the set last printed
	any          bool              // a set has been printed
}

func (r *followReport) batch(n int, res *stream.Result, last bool) {
	phase2 := "cached"
	if res.Remined {
		phase2 = "remined"
	}
	fmt.Fprintf(r.w, "batch %d: +%d/-%d sequences (cursor %d), %d frequent, %d border, phase2 %s, %d reprobes avoided, %d scans\n",
		n, res.Appended, res.Expired, res.Total, res.Frequent.Len(), res.Border.Len(), phase2, res.ReprobesAvoided, res.Scans)
	if !r.verbose {
		return
	}
	set, label := res.Border, "border"
	if r.all {
		set, label = res.Frequent, "frequent"
	}
	ps := set.Patterns()
	if r.any && !last && slices.EqualFunc(ps, r.shown, pattern.Pattern.Equal) {
		return
	}
	r.shown, r.any = ps, true
	fmt.Fprintf(r.w, "  %s:", label)
	for _, p := range ps {
		fmt.Fprintf(r.w, " %s", r.a.Format(p))
	}
	fmt.Fprintln(r.w)
}

// degradeCause names what forced the graceful degradation.
func degradeCause(res *core.Result) string {
	if res.DegradeReason == core.DegradeShardLost {
		return "a phase 3 shard became permanently unreachable"
	}
	return "phase 3 budget expired"
}

// finish writes the telemetry snapshot (when collecting) and exits with the
// degradation contract's status code: 0 for a complete result, 3 for a
// degraded one (Phase 3 budget expired; the confirmed set plus Chernoff
// intervals were reported). Orchestration can distinguish "done" from "done
// but worth resuming" by exit code alone.
func finish(m *telemetry.Metrics, res *core.Result, format string) {
	if m != nil {
		writeMetrics(m, res, format)
	}
	if res.Degraded {
		os.Exit(3)
	}
}

// writeMetrics renders the run's telemetry snapshot (with the scanner's
// retry counters folded in) to stderr, keeping stdout clean for the report.
func writeMetrics(m *telemetry.Metrics, res *core.Result, format string) {
	snap := m.Snapshot()
	snap.Retry = res.ScanStats
	snap.Degraded = res.Degraded
	var err error
	if format == "json" {
		err = snap.WriteJSON(os.Stderr)
	} else {
		err = snap.WriteText(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lspmine: metrics:", err)
	}
}

// reportInterrupted summarizes a cancelled run: the phase it died in, the
// scans it completed, and whatever partial output the finished phases left.
// By the time the *PhaseError surfaced, the pipeline already flushed its
// final checkpoint (when one was configured).
func reportInterrupted(err error, res *core.Result, db seqdb.Scanner, ckptPath string) {
	phase := 0
	var pe *core.PhaseError
	if errors.As(err, &pe) {
		phase = pe.Phase
	}
	fmt.Fprintf(os.Stderr, "lspmine: interrupted during phase %d; %d full scans completed\n", phase, db.Scans())
	if ckptPath != "" {
		fmt.Fprintf(os.Stderr, "lspmine: progress saved to %s; continue with -resume\n", ckptPath)
	}
	if res == nil {
		os.Exit(130)
	}
	if res.Phase2 != nil {
		fmt.Fprintf(os.Stderr, "lspmine: partial result: %d sample-frequent, %d ambiguous (unresolved)\n",
			res.Phase2.Frequent.Len(), res.Phase2.Ambiguous.Len())
	}
	if st := res.ScanStats; st.Retries > 0 {
		fmt.Fprintf(os.Stderr, "lspmine: %d scan attempts, %d retried\n", st.Attempts, st.Retries)
	}
	os.Exit(130)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lspmine:", err)
	os.Exit(1)
}
