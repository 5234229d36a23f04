// Command lspbench drives the three-phase miner over a §6-style grid of
// synthetic workloads (internal/datagen) and emits a machine-readable
// benchmark report, BENCH_mine.json. It is the repo's perf baseline: run it
// before and after a change to see where the scans, candidates, and wall
// time went.
//
// Usage:
//
//	lspbench [-quick] [-runs 3] [-seed 1] [-out BENCH_mine.json]
//
// Each workload is mined -runs times with telemetry enabled (reported
// timings are the mean), then -runs times with telemetry disabled to
// measure the collection overhead. -quick restricts the grid to the two
// smallest workloads and two runs each — the CI configuration.
//
// Workloads mine with the Phase 2 engine the automatic rule picks; each
// cell also re-times Phase 2 under both engines forced. The engine sweep is
// the rule's evidence: the long-low recipe at a range of mean sequence
// lengths over 20 and 40 symbols, plus banded-matrix rows, each with both
// engines' Phase 2 time and the engine the rule picks (-quick keeps one
// length on each side of the threshold).
//
// A final serve cell drives the base workload through an in-process
// lspserve (internal/jobs behind its HTTP handler) and reports submission
// throughput and submit→complete latency percentiles.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// workload is one cell of the benchmark grid: a standard database recipe, a
// noise level, and the mining parameters applied to the noisy copy.
type workload struct {
	Name string `json:"name"`
	// quick marks the workloads kept by -quick.
	quick bool

	// Generation.
	N              int     // sequences
	MinLen, MaxLen int     // sequence length range
	M              int     // alphabet size
	NumMotifs      int     // planted motifs
	MotifLen       int     // motif length
	PlantProb      float64 // per-sequence plant probability
	Alpha          float64 // uniform noise rate
	// Sparse mines with a banded compatibility matrix (each observed symbol
	// explained only by itself and its ring neighbors) instead of the uniform
	// one — the regime the incremental kernel's sparse window cache targets.
	Sparse bool

	// Mining.
	MinMatch  float64
	Delta     float64
	PatLen    int // core.Config.MaxLen
	MaxGap    int
	Sample    int
	MemBudget int
	MaxCand   int
	Finalizer core.Finalizer
}

// grid is the paper-shaped parameter sweep: a base protein-like workload
// (Figure 14's neighborhood, scaled to seconds), a longer-pattern variant
// exercising gaps, a noisier variant that swells the ambiguous region, and a
// wide-alphabet variant stressing candidate generation.
// Delta is set to 1e-2 throughout (vs the paper's 1e-4): with the bench's
// small samples the paper's confidence would push the Chernoff band so wide
// that most of the lattice lands in the ambiguous region and the run spends
// minutes probing — the right trade-off for mining, the wrong one for a
// benchmark that must finish in seconds.
var grid = []workload{
	{
		Name: "base", quick: true,
		N: 400, MinLen: 24, MaxLen: 40, M: 20,
		NumMotifs: 3, MotifLen: 5, PlantProb: 0.40, Alpha: 0.05,
		MinMatch: 0.20, Delta: 1e-2, PatLen: 6, MaxGap: 0, Sample: 200,
		MemBudget: 500, MaxCand: 50000, Finalizer: core.BorderCollapsing,
	},
	{
		Name: "noisy", quick: true,
		N: 400, MinLen: 24, MaxLen: 40, M: 20,
		NumMotifs: 3, MotifLen: 5, PlantProb: 0.50, Alpha: 0.15,
		MinMatch: 0.18, Delta: 1e-2, PatLen: 6, MaxGap: 0, Sample: 200,
		MemBudget: 500, MaxCand: 50000, Finalizer: core.BorderCollapsing,
	},
	{
		Name: "sparse-band", quick: true,
		N: 400, MinLen: 24, MaxLen: 40, M: 20,
		NumMotifs: 3, MotifLen: 5, PlantProb: 0.45, Alpha: 0.10, Sparse: true,
		MinMatch: 0.20, Delta: 1e-2, PatLen: 6, MaxGap: 1, Sample: 200,
		MemBudget: 500, MaxCand: 50000, Finalizer: core.BorderCollapsing,
	},
	{
		Name: "long-gapped",
		N:    2000, MinLen: 30, MaxLen: 50, M: 20,
		NumMotifs: 2, MotifLen: 8, PlantProb: 0.50, Alpha: 0.05,
		MinMatch: 0.25, Delta: 1e-2, PatLen: 8, MaxGap: 1, Sample: 500,
		MemBudget: 1000, MaxCand: 50000, Finalizer: core.BorderCollapsing,
	},
	{
		// The pattern-growth engine's home turf: long sequences mined deep at
		// a low threshold. Every window of every sequence is a candidate
		// position, so the level-wise engine's per-candidate window walks
		// scale with sequence length — while the growth engine's class
		// profile values a whole sibling group from one walk plus one
		// O(alphabet) pass per child, and its optimistic bound prunes the
		// frontier without valuing it.
		Name: "long-low",
		N:    600, MinLen: 150, MaxLen: 220, M: 20,
		NumMotifs: 2, MotifLen: 10, PlantProb: 0.55, Alpha: 0.05,
		MinMatch: 0.2, Delta: 1e-2, PatLen: 8, MaxGap: 1, Sample: 300,
		MemBudget: 1000, MaxCand: 50000, Finalizer: core.BorderCollapsing,
	},
	{
		Name: "wide-alphabet",
		N:    300, MinLen: 40, MaxLen: 40, M: 50,
		NumMotifs: 2, MotifLen: 5, PlantProb: 0.50, Alpha: 0.04,
		MinMatch: 0.20, Delta: 1e-2, PatLen: 5, MaxGap: 0, Sample: 250,
		MemBudget: 1000, MaxCand: 50000, Finalizer: core.BorderCollapsing,
	},
}

// result is one workload's measured outcome.
type result struct {
	Name      string  `json:"name"`
	Sequences int     `json:"sequences"`
	Alphabet  int     `json:"alphabet"`
	Alpha     float64 `json:"alpha"`
	MinMatch  float64 `json:"min_match"`
	Delta     float64 `json:"delta"`
	PatLen    int     `json:"max_len"`
	MaxGap    int     `json:"max_gap"`
	Sample    int     `json:"sample"`
	MemBudget int     `json:"mem_budget"`

	Runs int `json:"runs"`
	// Phase2Engine is the engine the automatic rule ran Phase 2 with.
	Phase2Engine string  `json:"phase2_engine"`
	NsPerOp      float64 `json:"ns_per_op"`
	PlainNsPerOp float64 `json:"plain_ns_per_op"`
	// TelemetryOverheadPct compares the instrumented and uninstrumented
	// means; small negatives are run-to-run noise.
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`

	Scans      int     `json:"scans"`
	ProbeScans int64   `json:"probe_scans"`
	Phase1Ms   float64 `json:"phase1_ms"`
	Phase2Ms   float64 `json:"phase2_ms"`
	Phase3Ms   float64 `json:"phase3_ms"`
	// Phase2LevelMs is the last run's per-level Phase 2 wall time (level-wise
	// engine only).
	Phase2LevelMs []float64 `json:"phase2_level_ms,omitempty"`
	// Phase2NaiveMs re-mines the same sample with Phase2Kernel=KernelNaive
	// on the level-wise engine; Phase2SpeedupX is naive over the level-wise
	// incremental kernel (Phase2LevelwiseMs), and LabelsIdentical confirms
	// both kernels classified every evaluated pattern identically.
	Phase2NaiveMs   float64 `json:"phase2_naive_ms"`
	Phase2SpeedupX  float64 `json:"phase2_speedup_x"`
	LabelsIdentical bool    `json:"labels_identical"`
	// The engine-comparison cell: Phase2GrowthMs re-mines the last run's
	// sample with the depth-first pattern-growth engine
	// (Phase2Engine=growth), best-of-3 against a best-of-3 re-time of the
	// level-wise engine (Phase2LevelwiseMs). GrowthSpeedupX is levelwise over
	// growth, GrowthNodesExpanded counts DFS nodes valued or pruned (compare
	// PeakCandidates, the level-wise engine's resident high-water mark),
	// GrowthBoundPrunes counts subtrees cut by the projection bound, and
	// GrowthLabelsIdentical confirms both engines classified every candidate
	// identically.
	Phase2LevelwiseMs     float64 `json:"phase2_levelwise_ms"`
	Phase2GrowthMs        float64 `json:"phase2_growth_ms"`
	GrowthSpeedupX        float64 `json:"growth_speedup_x"`
	GrowthNodesExpanded   int64   `json:"growth_nodes_expanded"`
	GrowthBoundPrunes     int64   `json:"growth_bound_prunes"`
	GrowthLabelsIdentical bool    `json:"growth_labels_identical"`
	SequencesPerSec       float64 `json:"sequences_per_sec"`
	PeakCandidates        int64   `json:"peak_candidates"`
	Frequent              int     `json:"frequent"`
	Border                int     `json:"border"`

	// Telemetry is the last instrumented run's full snapshot.
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// serveResult is the serving cell: the base workload submitted as concurrent
// jobs to an in-process lspserve, measured end to end through the HTTP API.
type serveResult struct {
	Jobs        int `json:"jobs"`
	WorkerSlots int `json:"worker_slots"`

	// JobsPerSec is completed jobs over the wall time from first submit to
	// last completion.
	WallMs     float64 `json:"wall_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`

	// SubmitP95Ms is the client-observed POST /v1/jobs round trip (admission
	// + journal fsync), which the admission path keeps independent of mining.
	SubmitP95Ms float64 `json:"submit_p95_ms"`

	// Latency percentiles are submit→complete per job, from the journal's own
	// timestamps (SubmittedMs → FinishedMs), so queueing time is included.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`
}

// streamResult is the streaming cell: the base workload fed into an
// append-only log batch by batch, consumed by an incremental follower
// (internal/stream through core.Stream) and, for comparison, re-mined from
// scratch over each growing prefix. The follower's claim is amortized cost:
// stationary batches skip Phase 2 and serve Phase 3 probes from cached exact
// sums, so it must spend strictly fewer probe-pattern counts (and typically
// far fewer scans) than the from-scratch loop over the same batch schedule.
type streamResult struct {
	Workload string `json:"workload"`
	// WarmupSequences seed the log before measurement starts: a follower
	// attaching to a near-empty log is degenerate (a tiny window makes the
	// Chernoff band so wide that almost the whole lattice is ambiguous, for
	// the from-scratch miner just as much), so the cell measures the
	// steady-state regime both paths actually run in.
	WarmupSequences int `json:"warmup_sequences"`
	Batches         int `json:"batches"`
	BatchSize       int `json:"batch_size"`

	// Amortized wall time per consumed batch, streaming vs from-scratch.
	StreamMsPerBatch  float64 `json:"stream_ms_per_batch"`
	ScratchMsPerBatch float64 `json:"scratch_ms_per_batch"`
	SpeedupX          float64 `json:"speedup_x"`

	// ReminesSkipped counts batches whose maintained labels proved the
	// border did not move (Phase 2 skipped outright).
	ReminesSkipped int `json:"remines_skipped"`
	// StreamProbed / ScratchProbed count the Phase 3 probe patterns each
	// side actually counted against the database over all batches (for the
	// follower, cache-served resolutions are subtracted — they cost no
	// database work); ReprobesAvoided counts those cache-served ambiguous
	// patterns. FewerReprobes is the committed claim: the incremental path
	// re-probed strictly fewer patterns than mining every prefix from
	// scratch.
	StreamProbed    int64 `json:"stream_probed"`
	ScratchProbed   int64 `json:"scratch_probed"`
	ReprobesAvoided int64 `json:"reprobes_avoided"`
	FewerReprobes   bool  `json:"fewer_reprobes"`

	// Window passes spent by each side (Phase 1 + Phase 3; the follower's
	// ingest tail-reads are not passes).
	StreamScans  int64 `json:"stream_scans"`
	ScratchScans int64 `json:"scratch_scans"`

	// FinalSetsAgree compares the last batch's frequent set against the
	// final from-scratch mine (informational: the two draw different Phase 1
	// samples, so agreement is expected, not guaranteed).
	FinalSetsAgree bool `json:"final_sets_agree"`
}

// sweepCell is one row of the engine sweep: the long-low recipe with Alphabet
// symbols and sequence lengths centred on MeanLen, over the uniform or the
// banded compatibility matrix.
type sweepCell struct {
	Alphabet, MeanLen int
	Banded            bool
	quick             bool
}

// engineSweep spans both sides of the rule's threshold (mean length =
// core.GrowthLengthRatio × alphabet: 60 at 20 symbols, 120 at 40). The
// banded rows probe a sparse matrix, where few windows survive and the
// crossover sits at longer sequences than the rule assumes.
var engineSweep = []sweepCell{
	{Alphabet: 20, MeanLen: 40, quick: true},
	{Alphabet: 20, MeanLen: 60},
	{Alphabet: 20, MeanLen: 90, quick: true},
	{Alphabet: 20, MeanLen: 130},
	{Alphabet: 20, MeanLen: 185},
	{Alphabet: 40, MeanLen: 40},
	{Alphabet: 40, MeanLen: 60},
	{Alphabet: 40, MeanLen: 90},
	{Alphabet: 40, MeanLen: 130},
	{Alphabet: 40, MeanLen: 185},
	{Alphabet: 20, MeanLen: 90, Banded: true},
	{Alphabet: 20, MeanLen: 130, Banded: true},
	{Alphabet: 20, MeanLen: 185, Banded: true},
}

// sweepRow is one measured engine-sweep row. LengthRatio is the database's
// mean sequence length over the alphabet size; Pick is the engine the
// automatic rule ran (it reads the sample's mean, which is within a few
// percent of the database's). Phase 2 times are best-of-3 with each engine
// forced; GrowthSpeedupX is level-wise over growth, and LabelsIdentical
// confirms both engines classified every candidate identically.
type sweepRow struct {
	Alphabet          int     `json:"alphabet"`
	MeanLen           int     `json:"mean_len"`
	Banded            bool    `json:"banded,omitempty"`
	LengthRatio       float64 `json:"length_ratio"`
	Phase2LevelwiseMs float64 `json:"phase2_levelwise_ms"`
	Phase2GrowthMs    float64 `json:"phase2_growth_ms"`
	GrowthSpeedupX    float64 `json:"growth_speedup_x"`
	Pick              string  `json:"pick"`
	LabelsIdentical   bool    `json:"labels_identical"`
}

// report is the BENCH_mine.json document.
type report struct {
	Schema    string        `json:"schema"`
	Go        string        `json:"go"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Quick     bool          `json:"quick"`
	Seed      int64         `json:"seed"`
	Workloads []result      `json:"workloads"`
	Sweep     []sweepRow    `json:"engine_sweep"`
	Serve     *serveResult  `json:"serve,omitempty"`
	Stream    *streamResult `json:"stream,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "run only the small workloads, two runs each (the CI configuration)")
	runs := flag.Int("runs", 3, "mining runs per workload (reported timings are the mean)")
	seed := flag.Int64("seed", 1, "random seed for generation and sampling")
	out := flag.String("out", "BENCH_mine.json", "output file (- for stdout)")
	flag.Parse()

	if *runs < 1 {
		fatal(fmt.Errorf("runs %d < 1", *runs))
	}
	if *quick && *runs > 2 {
		*runs = 2
	}

	rep := report{
		Schema: "lspbench/v2",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Quick:  *quick,
		Seed:   *seed,
	}
	for _, w := range grid {
		if *quick && !w.quick {
			continue
		}
		fmt.Fprintf(os.Stderr, "lspbench: %s (%d sequences, m=%d, %d runs)\n", w.Name, w.N, w.M, *runs)
		r, err := bench(w, *runs, *seed)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		rep.Workloads = append(rep.Workloads, r)
	}

	for _, cell := range engineSweep {
		if *quick && !cell.quick {
			continue
		}
		fmt.Fprintf(os.Stderr, "lspbench: engine sweep (m=%d, mean length %d, banded %v)\n", cell.Alphabet, cell.MeanLen, cell.Banded)
		row, err := sweep(cell, *seed)
		if err != nil {
			fatal(fmt.Errorf("engine sweep m=%d mean length %d: %w", cell.Alphabet, cell.MeanLen, err))
		}
		rep.Sweep = append(rep.Sweep, row)
	}

	serveJobs := 32
	if *quick {
		serveJobs = 8
	}
	fmt.Fprintf(os.Stderr, "lspbench: serve (%d jobs over the base workload)\n", serveJobs)
	sr, err := benchServe(serveJobs, *seed)
	if err != nil {
		fatal(fmt.Errorf("serve: %w", err))
	}
	rep.Serve = sr

	fmt.Fprintf(os.Stderr, "lspbench: stream (base workload, batched append + incremental follow)\n")
	str, err := benchStream(*seed)
	if err != nil {
		fatal(fmt.Errorf("stream: %w", err))
	}
	rep.Stream = str

	var f *os.File
	if *out == "-" {
		f = os.Stdout
	} else {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "lspbench: wrote %s\n", *out)
	}
}

// mineFunc mines a workload once with the given telemetry collector,
// sampling seed, Phase 2 kernel and engine, timing the whole run.
type mineFunc func(metrics *telemetry.Metrics, runSeed int64, kernel core.Phase2Kernel, engine core.Phase2Engine) (*core.Result, time.Duration, error)

// generate builds the workload's noisy database and compatibility matrix and
// returns a mineFunc over them.
func (w workload) generate(seed int64) (*seqdb.MemDB, mineFunc, error) {
	rng := rand.New(rand.NewSource(seed))
	standard, _, err := datagen.Protein(datagen.ProteinConfig{
		N: w.N, M: w.M, MinLen: w.MinLen, MaxLen: w.MaxLen,
		NumMotifs: w.NumMotifs, MotifLen: w.MotifLen, PlantProb: w.PlantProb,
	}, rng)
	if err != nil {
		return nil, nil, err
	}
	db, err := datagen.ApplyUniformNoise(standard, w.M, w.Alpha, rng)
	if err != nil {
		return nil, nil, err
	}
	var c compat.Source
	if w.Sparse {
		c, err = bandedMatrix(w.M)
	} else {
		c, err = compat.UniformNoise(w.M, w.Alpha)
	}
	if err != nil {
		return nil, nil, err
	}
	mine := func(metrics *telemetry.Metrics, runSeed int64, kernel core.Phase2Kernel, engine core.Phase2Engine) (*core.Result, time.Duration, error) {
		start := time.Now()
		res, err := core.Mine(db, c, core.Config{
			MinMatch:              w.MinMatch,
			Delta:                 w.Delta,
			SampleSize:            w.Sample,
			MaxLen:                w.PatLen,
			MaxGap:                w.MaxGap,
			MaxCandidatesPerLevel: w.MaxCand,
			MemBudget:             w.MemBudget,
			Finalizer:             w.Finalizer,
			Workers:               runtime.NumCPU(),
			Phase2Kernel:          kernel,
			Phase2Engine:          engine,
			Rng:                   rand.New(rand.NewSource(runSeed)),
			Metrics:               metrics,
		})
		return res, time.Since(start), err
	}
	return db, mine, nil
}

// comparePhase2 re-mines one sample with each Phase 2 engine forced. Phase 2
// is milliseconds on the quick grid, so both engines are timed
// uninstrumented best-of-3, alternating, against the same seed; the last
// result of each is returned for label comparison.
func comparePhase2(mine mineFunc, seed int64) (lwBest, growthBest time.Duration, lwRes, growthRes *core.Result, err error) {
	for rep := 0; rep < 3; rep++ {
		if lwRes, _, err = mine(nil, seed, core.KernelIncremental, core.Phase2Levelwise); err != nil {
			return
		}
		if rep == 0 || lwRes.Phase2Time < lwBest {
			lwBest = lwRes.Phase2Time
		}
		if growthRes, _, err = mine(nil, seed, core.KernelIncremental, core.Phase2Growth); err != nil {
			return
		}
		if rep == 0 || growthRes.Phase2Time < growthBest {
			growthBest = growthRes.Phase2Time
		}
	}
	return
}

// sweep measures one engine-sweep row: the long-low workload with the cell's
// alphabet and lengths (±19% around the mean, the long-low spread), Phase 3
// skipped since only Phase 2 differs between engines.
func sweep(cell sweepCell, seed int64) (sweepRow, error) {
	var w workload
	for _, g := range grid {
		if g.Name == "long-low" {
			w = g
		}
	}
	spread := cell.MeanLen * 19 / 100
	w.M, w.MinLen, w.MaxLen, w.Sparse = cell.Alphabet, cell.MeanLen-spread, cell.MeanLen+spread, cell.Banded
	w.Finalizer = core.None
	db, mine, err := w.generate(seed)
	if err != nil {
		return sweepRow{}, err
	}
	lw, gr, lwRes, grRes, err := comparePhase2(mine, seed)
	if err != nil {
		return sweepRow{}, err
	}
	auto, _, err := mine(nil, seed, core.KernelIncremental, core.Phase2Auto)
	if err != nil {
		return sweepRow{}, err
	}
	symbols := 0
	for i := 0; i < db.Len(); i++ {
		symbols += len(db.Seq(i))
	}
	row := sweepRow{
		Alphabet: cell.Alphabet, MeanLen: cell.MeanLen, Banded: cell.Banded,
		LengthRatio:       float64(symbols) / float64(db.Len()) / float64(cell.Alphabet),
		Phase2LevelwiseMs: float64(lw.Microseconds()) / 1000,
		Phase2GrowthMs:    float64(gr.Microseconds()) / 1000,
		Pick:              auto.Phase2Engine,
		LabelsIdentical:   sameLabels(lwRes, grRes) && sameFrequent(lwRes, grRes),
	}
	if gr > 0 {
		row.GrowthSpeedupX = float64(lw.Microseconds()) / float64(gr.Microseconds())
	}
	return row, nil
}

// bench generates the workload's noisy database once, then mines it
// runs times with telemetry and runs times without, under the automatic
// Phase 2 engine.
func bench(w workload, runs int, seed int64) (result, error) {
	db, mine, err := w.generate(seed)
	if err != nil {
		return result{}, err
	}

	r := result{
		Name: w.Name, Sequences: w.N, Alphabet: w.M, Alpha: w.Alpha,
		MinMatch: w.MinMatch, Delta: w.Delta, PatLen: w.PatLen, MaxGap: w.MaxGap,
		Sample: w.Sample, MemBudget: w.MemBudget, Runs: runs,
	}
	var instrumented, plain time.Duration
	var lastRes *core.Result
	var lastSeed int64
	for i := 0; i < runs; i++ {
		// The same per-run seed drives the instrumented and plain runs, so
		// both sequences of runs mine identical samples.
		runSeed := seed + int64(i)
		metrics := &telemetry.Metrics{}
		res, d, err := mine(metrics, runSeed, core.KernelIncremental, core.Phase2Auto)
		if err != nil {
			return result{}, err
		}
		instrumented += d
		if i == runs-1 {
			snap := metrics.Snapshot()
			if sr, ok := seqdb.Scanner(db).(seqdb.StatsReporter); ok {
				snap.Retry = sr.ScanStats()
			}
			r.Telemetry = snap
			r.Scans = res.Scans
			r.ProbeScans = snap.ProbeScans
			r.Phase1Ms = float64(res.Phase1Time.Microseconds()) / 1000
			r.Phase2Ms = float64(res.Phase2Time.Microseconds()) / 1000
			r.Phase3Ms = float64(res.Phase3Time.Microseconds()) / 1000
			r.SequencesPerSec = snap.SequencesPerSec
			r.PeakCandidates = snap.PeakCandidates
			r.Frequent = res.Frequent.Len()
			r.Border = res.Border.Len()
			r.Phase2Engine = res.Phase2Engine
			if res.Phase2 != nil {
				r.Phase2LevelMs = res.Phase2.LevelMillis
			}
			lastRes, lastSeed = res, runSeed
		}
		if _, d, err := mine(nil, runSeed, core.KernelIncremental, core.Phase2Auto); err != nil {
			return result{}, err
		} else {
			plain += d
		}
	}

	// The engine-comparison cell: re-mine the last run's sample with each
	// engine forced; one extra instrumented growth run collects the DFS node
	// and bound-prune counters reported next to the level-wise engine's
	// resident peak_candidates.
	lwP2Best, growthP2Best, lwRes, growthRes, err := comparePhase2(mine, lastSeed)
	if err != nil {
		return result{}, err
	}
	growthMetrics := &telemetry.Metrics{}
	if _, _, err := mine(growthMetrics, lastSeed, core.KernelIncremental, core.Phase2Growth); err != nil {
		return result{}, err
	}
	growthSnap := growthMetrics.Snapshot()
	r.Phase2LevelwiseMs = float64(lwP2Best.Microseconds()) / 1000
	r.Phase2GrowthMs = float64(growthP2Best.Microseconds()) / 1000
	if growthP2Best > 0 {
		r.GrowthSpeedupX = float64(lwP2Best.Microseconds()) / float64(growthP2Best.Microseconds())
	}
	r.GrowthNodesExpanded = growthSnap.GrowthNodes
	r.GrowthBoundPrunes = growthSnap.GrowthPrunes
	r.GrowthLabelsIdentical = sameLabels(lwRes, growthRes) && sameFrequent(lwRes, growthRes)

	// Mine the last run's sample once more with the naive per-pattern kernel
	// on the level-wise engine: its Phase 2 wall time is the incremental
	// kernel's speedup baseline, and its classifications must agree with the
	// automatic run's pattern for pattern.
	naiveRes, _, err := mine(nil, lastSeed, core.KernelNaive, core.Phase2Levelwise)
	if err != nil {
		return result{}, err
	}
	r.Phase2NaiveMs = float64(naiveRes.Phase2Time.Microseconds()) / 1000
	if lwP2Best > 0 {
		r.Phase2SpeedupX = float64(naiveRes.Phase2Time.Microseconds()) / float64(lwP2Best.Microseconds())
	}
	r.LabelsIdentical = sameLabels(lastRes, naiveRes)

	r.NsPerOp = float64(instrumented.Nanoseconds()) / float64(runs)
	r.PlainNsPerOp = float64(plain.Nanoseconds()) / float64(runs)
	if r.PlainNsPerOp > 0 {
		r.TelemetryOverheadPct = 100 * (r.NsPerOp - r.PlainNsPerOp) / r.PlainNsPerOp
	}
	return r, nil
}

// benchServe measures the serving layer on the base workload: n jobs (same
// database, distinct sampling seeds) submitted back to back through the HTTP
// API of an in-process lspserve, mined on the default worker-slot semaphore.
func benchServe(n int, seed int64) (*serveResult, error) {
	w := grid[0] // base
	rng := rand.New(rand.NewSource(seed))
	standard, _, err := datagen.Protein(datagen.ProteinConfig{
		N: w.N, M: w.M, MinLen: w.MinLen, MaxLen: w.MaxLen,
		NumMotifs: w.NumMotifs, MotifLen: w.MotifLen, PlantProb: w.PlantProb,
	}, rng)
	if err != nil {
		return nil, err
	}
	db, err := datagen.ApplyUniformNoise(standard, w.M, w.Alpha, rng)
	if err != nil {
		return nil, err
	}
	c, err := compat.UniformNoise(w.M, w.Alpha)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "lspbench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "base.lsq")
	if err := seqdb.WriteFile(dbPath, db); err != nil {
		return nil, err
	}
	matrixPath := filepath.Join(dir, "base.compat")
	mf, err := os.Create(matrixPath)
	if err != nil {
		return nil, err
	}
	if _, err := c.WriteTo(mf); err != nil {
		mf.Close()
		return nil, err
	}
	if err := mf.Close(); err != nil {
		return nil, err
	}

	mgr, err := jobs.NewManager(jobs.Options{
		Dir:      filepath.Join(dir, "data"),
		QueueCap: n, // all jobs must be admissible up front
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	srv := httptest.NewServer((&jobs.Server{Manager: mgr}).Handler())
	defer srv.Close()

	sr := &serveResult{Jobs: n, WorkerSlots: mgr.Counters().WorkerSlots}
	ids := make([]string, n)
	submitMs := make([]float64, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		spec := jobs.Spec{
			DB: dbPath, Matrix: matrixPath,
			MinMatch: w.MinMatch, Delta: w.Delta, MaxLen: w.PatLen,
			MaxGap: w.MaxGap, Sample: w.Sample, MemBudget: w.MemBudget,
			MaxCandidates: w.MaxCand,
			Seed:          seed + int64(i),
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		submitMs[i] = float64(time.Since(t0).Microseconds()) / 1000
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			resp.Body.Close()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return nil, fmt.Errorf("job %d: submit status %d", i, resp.StatusCode)
		}
		ids[i] = st.ID
	}

	latencyMs := make([]float64, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	for i, id := range ids {
		st, err := mgr.Wait(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", id, err)
		}
		if st.State != jobs.StateDone {
			return nil, fmt.Errorf("job %s: state %s (%s)", id, st.State, st.Error)
		}
		latencyMs[i] = float64(st.FinishedMs - st.SubmittedMs)
	}
	wall := time.Since(start)

	sr.WallMs = float64(wall.Microseconds()) / 1000
	sr.JobsPerSec = float64(n) / wall.Seconds()
	sr.SubmitP95Ms = percentile(submitMs, 0.95)
	sr.LatencyP50Ms = percentile(latencyMs, 0.50)
	sr.LatencyP95Ms = percentile(latencyMs, 0.95)
	sr.LatencyMaxMs = percentile(latencyMs, 1)
	return sr, nil
}

// benchStream feeds the base workload into an append-only log in fixed
// batches and measures the incremental follower against mining every growing
// prefix from scratch with the same parameters. Both sides run once — the
// comparison is amortized cost over the batch schedule, not a microbenchmark.
func benchStream(seed int64) (*streamResult, error) {
	// The base recipe at streaming scale: ten times the sequences, so the
	// window is what a follower actually tails — big enough that full window
	// passes (Phase 1 rescans, probe scans) dominate the from-scratch loop,
	// which is exactly the cost the incremental path exists to amortize.
	w := grid[0] // base
	w.N *= 10
	rng := rand.New(rand.NewSource(seed))
	standard, _, err := datagen.Protein(datagen.ProteinConfig{
		N: w.N, M: w.M, MinLen: w.MinLen, MaxLen: w.MaxLen,
		NumMotifs: w.NumMotifs, MotifLen: w.MotifLen, PlantProb: w.PlantProb,
	}, rng)
	if err != nil {
		return nil, err
	}
	noisy, err := datagen.ApplyUniformNoise(standard, w.M, w.Alpha, rng)
	if err != nil {
		return nil, err
	}
	c, err := compat.UniformNoise(w.M, w.Alpha)
	if err != nil {
		return nil, err
	}
	var seqs [][]pattern.Symbol
	if err := noisy.Scan(func(id int, seq []pattern.Symbol) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "lspbench-stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := seqdb.CreateAppend(filepath.Join(dir, "stream.lsa"))
	if err != nil {
		return nil, err
	}
	defer log.Close()

	const batchSize = 200
	warmup := len(seqs) / 2
	batches := (len(seqs) - warmup + batchSize - 1) / batchSize
	cfg := core.StreamConfig{
		Config: core.Config{
			MinMatch:              w.MinMatch,
			Delta:                 w.Delta,
			SampleSize:            w.Sample,
			MaxLen:                w.PatLen,
			MaxGap:                w.MaxGap,
			MaxCandidatesPerLevel: w.MaxCand,
			MemBudget:             w.MemBudget,
			Workers:               runtime.NumCPU(),
		},
		Seed: seed,
	}
	st, err := core.NewStream(log, c, cfg)
	if err != nil {
		return nil, err
	}

	r := &streamResult{Workload: w.Name, WarmupSequences: warmup, Batches: batches, BatchSize: batchSize}
	ctx := context.Background()

	// Warmup: the follower consumes the established prefix in one advance
	// that does not count toward the amortized figures.
	for _, seq := range seqs[:warmup] {
		if _, err := log.Append(seq); err != nil {
			return nil, err
		}
	}
	if _, err := st.Advance(ctx); err != nil {
		return nil, err
	}

	var streamTime time.Duration
	var lastFrequent *pattern.Set
	for lo := warmup; lo < len(seqs); lo += batchSize {
		hi := min(lo+batchSize, len(seqs))
		for _, seq := range seqs[lo:hi] {
			if _, err := log.Append(seq); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		res, err := st.Advance(ctx)
		if err != nil {
			return nil, err
		}
		streamTime += time.Since(t0)
		if !res.Remined {
			r.ReminesSkipped++
		}
		r.ReprobesAvoided += int64(res.ReprobesAvoided)
		r.StreamScans += int64(res.Scans)
		if res.Phase3 != nil {
			r.StreamProbed += int64(res.Phase3.Probed - res.ReprobesAvoided)
		}
		lastFrequent = res.Frequent
	}

	// The from-scratch loop: one full three-phase mine per prefix, same
	// parameters, a fresh Rng per batch (the follower's reservoir draws are
	// stateless; the batch miner's sampling needs an explicit source).
	var scratchTime time.Duration
	var lastScratch *core.Result
	for lo := warmup; lo < len(seqs); lo += batchSize {
		hi := min(lo+batchSize, len(seqs))
		prefix := seqdb.NewMemDB(seqs[:hi])
		t0 := time.Now()
		res, err := core.Mine(prefix, c, core.Config{
			MinMatch:              w.MinMatch,
			Delta:                 w.Delta,
			SampleSize:            w.Sample,
			MaxLen:                w.PatLen,
			MaxGap:                w.MaxGap,
			MaxCandidatesPerLevel: w.MaxCand,
			MemBudget:             w.MemBudget,
			Finalizer:             w.Finalizer,
			Workers:               runtime.NumCPU(),
			Rng:                   rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			return nil, err
		}
		scratchTime += time.Since(t0)
		r.ScratchScans += int64(res.Scans)
		if res.Phase3 != nil {
			r.ScratchProbed += int64(res.Phase3.Probed)
		}
		lastScratch = res
	}

	r.StreamMsPerBatch = float64(streamTime.Microseconds()) / 1000 / float64(batches)
	r.ScratchMsPerBatch = float64(scratchTime.Microseconds()) / 1000 / float64(batches)
	if streamTime > 0 {
		r.SpeedupX = float64(scratchTime.Microseconds()) / float64(streamTime.Microseconds())
	}
	r.FewerReprobes = r.StreamProbed < r.ScratchProbed
	if lastFrequent != nil && lastScratch != nil && lastFrequent.Len() == lastScratch.Frequent.Len() {
		r.FinalSetsAgree = true
		lastFrequent.ForEach(func(p pattern.Pattern) bool {
			if !lastScratch.Frequent.Contains(p) {
				r.FinalSetsAgree = false
				return false
			}
			return true
		})
	}
	return r, nil
}

// percentile returns the nearest-rank p-quantile of xs (p in (0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// bandedMatrix is the sparse-band compatibility model: each observed symbol
// is explained by itself (0.9) and its ring neighbors (0.06 / 0.04), so all
// but three cells of every column are zero and window survival collapses
// after a couple of positions.
func bandedMatrix(m int) (compat.Source, error) {
	cells := make([]compat.Cell, 0, 3*m)
	for o := 0; o < m; o++ {
		cells = append(cells,
			compat.Cell{True: pattern.Symbol(o), Observed: pattern.Symbol(o), P: 0.9},
			compat.Cell{True: pattern.Symbol((o + 1) % m), Observed: pattern.Symbol(o), P: 0.06},
			compat.Cell{True: pattern.Symbol((o + m - 1) % m), Observed: pattern.Symbol(o), P: 0.04},
		)
	}
	return compat.NewSparse(m, cells)
}

// sameLabels reports whether two runs' Phase 2 results evaluated the same
// candidates and assigned every one the same classification.
func sameLabels(a, b *core.Result) bool {
	if a == nil || b == nil || a.Phase2 == nil || b.Phase2 == nil {
		return false
	}
	if len(a.Phase2.Labels) != len(b.Phase2.Labels) {
		return false
	}
	for k, la := range a.Phase2.Labels {
		lb, ok := b.Phase2.Labels[k]
		if !ok || la != lb {
			return false
		}
	}
	return true
}

// sameFrequent reports whether two runs mined exactly the same frequent set.
func sameFrequent(a, b *core.Result) bool {
	if a == nil || b == nil || a.Frequent.Len() != b.Frequent.Len() {
		return false
	}
	same := true
	a.Frequent.ForEach(func(p pattern.Pattern) bool {
		if !b.Frequent.Contains(p) {
			same = false
			return false
		}
		return true
	})
	return same
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lspbench:", err)
	os.Exit(1)
}
