// Command lspbench runs the Phase 2 engine sweep, the evidence for
// core.PickPhase2Engine, and writes it as a machine-readable report,
// BENCH_mine.json.
//
// Usage:
//
//	lspbench [-quick] [-seed 1] [-out BENCH_mine.json]
//
// Each sweep row is the long-low recipe (the long-low workload perfbench
// times end to end) at one mean sequence length over 20 or 40 symbols, or
// over a banded compatibility matrix. Phase 2 runs best-of-3 with each engine
// forced, and the row records both times, the engine the automatic rule
// picks, and whether the engines classified every candidate alike. -quick
// keeps one length on each side of the rule's threshold (the CI
// configuration).
//
// lspbench is also a correctness gate: after writing the report it exits 1,
// naming each sweep row whose engines disagreed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// workload is a standard database recipe, a noise level, and the mining
// parameters applied to the noisy copy.
type workload struct {
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
	// one — the regime where the projections' sparse window storage pays.
	Sparse bool

	// Mining.
	MinMatch float64
	Delta    float64
	PatLen   int // core.Config.MaxLen
	MaxGap   int
	Sample   int
	MaxCand  int
}

// longLow is the sweep's base: long sequences mined deep at a low threshold,
// where every window of every sequence is a candidate position. Delta is
// 1e-2 (vs the paper's 1e-4): with a sample of 300 the paper's confidence
// widens the Chernoff band until most of the lattice is ambiguous.
var longLow = workload{
	N: 600, MinLen: 150, MaxLen: 220, M: 20,
	NumMotifs: 2, MotifLen: 10, PlantProb: 0.55, Alpha: 0.05,
	MinMatch: 0.2, Delta: 1e-2, PatLen: 8, MaxGap: 1, Sample: 300, MaxCand: 50000,
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
	Schema string     `json:"schema"`
	Go     string     `json:"go"`
	GOOS   string     `json:"goos"`
	GOARCH string     `json:"goarch"`
	NumCPU int        `json:"num_cpu"`
	Quick  bool       `json:"quick"`
	Seed   int64      `json:"seed"`
	Sweep  []sweepRow `json:"engine_sweep"`
}

func main() {
	quick := flag.Bool("quick", false, "run one sweep row on each side of the rule's threshold (the CI configuration)")
	seed := flag.Int64("seed", 1, "random seed for generation and sampling")
	out := flag.String("out", "BENCH_mine.json", "output file (- for stdout)")
	flag.Parse()

	rep := report{
		Schema: "lspbench/v3",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Quick:  *quick,
		Seed:   *seed,
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
	if failed := rep.disagreements(); len(failed) > 0 {
		for _, row := range failed {
			fmt.Fprintln(os.Stderr, "lspbench: engines disagree:", row)
		}
		os.Exit(1)
	}
}

// disagreements names every sweep row whose engines classified differently.
func (r *report) disagreements() []string {
	var failed []string
	for _, row := range r.Sweep {
		if !row.LabelsIdentical {
			failed = append(failed, fmt.Sprintf("engine_sweep m=%d mean length %d banded %v labels_identical",
				row.Alphabet, row.MeanLen, row.Banded))
		}
	}
	return failed
}

// mineFunc mines a workload once with the given sampling seed and Phase 2
// engine, Phase 3 skipped.
type mineFunc func(runSeed int64, engine core.Phase2Engine) (*core.Result, error)

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
	mine := func(runSeed int64, engine core.Phase2Engine) (*core.Result, error) {
		return core.Mine(db, c, core.Config{
			MinMatch:              w.MinMatch,
			Delta:                 w.Delta,
			SampleSize:            w.Sample,
			MaxLen:                w.PatLen,
			MaxGap:                w.MaxGap,
			MaxCandidatesPerLevel: w.MaxCand,
			Finalizer:             core.None,
			Workers:               runtime.NumCPU(),
			Phase2Engine:          engine,
			Rng:                   rand.New(rand.NewSource(runSeed)),
		})
	}
	return db, mine, nil
}

// comparePhase2 re-mines one sample with each Phase 2 engine forced. Both
// engines are timed best-of-3, alternating, against the same seed; the last
// result of each is returned for label comparison.
func comparePhase2(mine mineFunc, seed int64) (lwBest, growthBest time.Duration, lwRes, growthRes *core.Result, err error) {
	for rep := 0; rep < 3; rep++ {
		if lwRes, err = mine(seed, core.Phase2Levelwise); err != nil {
			return
		}
		if rep == 0 || lwRes.Phase2Time < lwBest {
			lwBest = lwRes.Phase2Time
		}
		if growthRes, err = mine(seed, core.Phase2Growth); err != nil {
			return
		}
		if rep == 0 || growthRes.Phase2Time < growthBest {
			growthBest = growthRes.Phase2Time
		}
	}
	return
}

// sweep measures one engine-sweep row: the long-low workload with the cell's
// alphabet and lengths (±19% around the mean, the long-low spread).
func sweep(cell sweepCell, seed int64) (sweepRow, error) {
	w := longLow
	spread := cell.MeanLen * 19 / 100
	w.M, w.MinLen, w.MaxLen, w.Sparse = cell.Alphabet, cell.MeanLen-spread, cell.MeanLen+spread, cell.Banded
	db, mine, err := w.generate(seed)
	if err != nil {
		return sweepRow{}, err
	}
	lw, gr, lwRes, grRes, err := comparePhase2(mine, seed)
	if err != nil {
		return sweepRow{}, err
	}
	auto, err := mine(seed, core.Phase2Auto)
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
		LabelsIdentical:   sameLabels(lwRes.Phase2, grRes.Phase2) && sameFrequent(lwRes, grRes),
	}
	if gr > 0 {
		row.GrowthSpeedupX = float64(lw.Microseconds()) / float64(gr.Microseconds())
	}
	return row, nil
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

// sameLabels reports whether two Phase 2 results evaluated the same
// candidates and assigned every one the same classification.
func sameLabels(a, b *miner.Result) bool {
	if a == nil || b == nil {
		return false
	}
	if len(a.Labels) != len(b.Labels) {
		return false
	}
	for k, la := range a.Labels {
		lb, ok := b.Labels[k]
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
