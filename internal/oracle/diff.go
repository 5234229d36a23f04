// The seeded differential driver: generates small random compatibility
// matrices and databases, mines them with every engine in the repo, and
// cross-checks the resulting frequent sets against the brute-force oracle.
// On a mismatch it reports the failing seed and greedily minimizes the
// database to the smallest instance that still diverges, so a conformance
// failure arrives as a ready-to-paste repro.
package oracle

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/maxminer"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/stream"
	"repro/internal/support"
)

// BoundaryTol is the dead band around the significance threshold inside
// which set membership is not compared: the oracle's log-space accumulation
// and the engines' direct products legitimately differ in the last few ulps,
// so a pattern whose true value sits within BoundaryTol of min_match may
// land on either side without indicating a bug. Everywhere else agreement is
// required exactly.
const BoundaryTol = 1e-9

// Case is one differential test instance: a compatibility matrix, a small
// database, and the mining parameters, all derived deterministically from
// Seed. Every engine is configured with a full-database sample
// (SampleSize = len(DB)), which removes sampling uncertainty: Phase 2's
// estimates become exact, every ambiguous pattern is probed against the
// database, and the final frequent set of a correct pipeline equals the
// oracle's brute-force set (Claims 4.1/4.2 promise exactly this).
type Case struct {
	Seed     int64
	C        *compat.Matrix
	DB       [][]pattern.Symbol
	MinMatch float64
	Delta    float64
	MaxLen   int
	MaxGap   int
	// MemBudget is Phase 3's per-scan counter budget; small values force
	// multi-scan border collapsing, which is exactly the machinery worth
	// stressing.
	MemBudget int
}

// clone deep-copies the case (the minimizer mutates DB).
func (cs *Case) clone() *Case {
	dup := *cs
	dup.DB = make([][]pattern.Symbol, len(cs.DB))
	for i, seq := range cs.DB {
		dup.DB[i] = append([]pattern.Symbol(nil), seq...)
	}
	return &dup
}

// GenCase derives a differential test case from a seed. The matrix family
// rotates through identity (the support degeneration), uniform noise (§5.1),
// and random column-stochastic matrices with and without zero cells; the
// database plants a motif in about half the sequences so several lattice
// levels stay alive. Alphabet size shrinks as MaxLen grows to keep the
// brute-force space tractable.
func GenCase(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	maxLen := 3 + rng.Intn(3)
	var m int
	switch maxLen {
	case 3:
		m = 3 + rng.Intn(4)
	case 4:
		m = 3 + rng.Intn(3)
	default:
		m = 3 + rng.Intn(2)
	}
	maxGap := rng.Intn(3)
	if maxLen == 5 {
		maxGap = rng.Intn(2)
	}
	c := randomMatrix(rng, m)

	n := 4 + rng.Intn(13)
	db := make([][]pattern.Symbol, n)
	motif := make([]pattern.Symbol, 2+rng.Intn(maxLen-1))
	for i := range motif {
		motif[i] = pattern.Symbol(rng.Intn(m))
	}
	for i := range db {
		l := 3 + rng.Intn(12)
		seq := make([]pattern.Symbol, l)
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		if l >= len(motif) && rng.Float64() < 0.5 {
			copy(seq[rng.Intn(l-len(motif)+1):], motif)
		}
		db[i] = seq
	}
	deltas := []float64{1e-4, 0.05, 0.2}
	return &Case{
		Seed:      seed,
		C:         c,
		DB:        db,
		MinMatch:  0.15 + 0.45*rng.Float64(),
		Delta:     deltas[rng.Intn(len(deltas))],
		MaxLen:    maxLen,
		MaxGap:    maxGap,
		MemBudget: 1 + rng.Intn(8),
	}
}

// randomMatrix picks a matrix family for the case.
func randomMatrix(rng *rand.Rand, m int) *compat.Matrix {
	switch rng.Intn(4) {
	case 0:
		return compat.Identity(m)
	case 1:
		c, err := compat.UniformNoise(m, 0.05+0.4*rng.Float64())
		if err != nil {
			panic(err) // unreachable: alpha in [0.05, 0.45), m >= 2
		}
		return c
	default:
		zeroRate := 0.0
		if rng.Intn(2) == 0 {
			zeroRate = 0.4
		}
		dense := make([][]float64, m)
		for i := range dense {
			dense[i] = make([]float64, m)
		}
		for j := 0; j < m; j++ {
			sum := 0.0
			for i := 0; i < m; i++ {
				v := rng.Float64()
				if rng.Float64() < zeroRate {
					v = 0
				}
				dense[i][j] = v
				sum += v
			}
			if sum == 0 {
				dense[j][j] = 1
				sum = 1
			}
			for i := 0; i < m; i++ {
				dense[i][j] /= sum
			}
		}
		c, err := compat.New(dense)
		if err != nil {
			panic(err) // unreachable: columns normalized above
		}
		return c
	}
}

// RefKind selects which oracle an engine's output is compared against.
type RefKind int

const (
	// RefMatch compares against FrequentMatch (the match measure).
	RefMatch RefKind = iota
	// RefSupport compares against FrequentSupport (the support measure).
	RefSupport
)

// Engine is one system under differential test: it mines a case and returns
// the frequent set within the case's bounded pattern space. An error return
// is itself a conformance failure (every generated case is valid input).
type Engine struct {
	Name string
	Ref  RefKind
	Mine func(cs *Case) (*pattern.Set, error)
}

func caseOpts(cs *Case) miner.Options {
	return miner.Options{MaxLen: cs.MaxLen, MaxGap: cs.MaxGap}
}

func caseRng(cs *Case) *rand.Rand {
	return rand.New(rand.NewSource(cs.Seed ^ 0x5eed))
}

// MineEngine wraps the full three-phase pipeline with the given finalizer
// and worker count, its Phase 2 engine picked from the case
// as in production.
func MineEngine(fin core.Finalizer, workers int) Engine {
	name := fmt.Sprintf("core.Mine/%s/workers=%d", fin, workers)
	return Engine{Name: name, Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		return mineCase(cs, seqdb.NewMemDB(cs.DB), cs.C, core.Config{Finalizer: fin, Workers: workers})
	}}
}

// MineEngineSparse is MineEngine over the case's matrix in its sparse form
// (compat.SparseMatrix, the representation for huge alphabets). A matrix
// and its sparse form are one matrix, so the frequent set must equal every
// other engine's.
func MineEngineSparse(fin core.Finalizer, workers int) Engine {
	name := MineEngine(fin, workers).Name + "/sparse"
	return Engine{Name: name, Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		return mineCase(cs, seqdb.NewMemDB(cs.DB), cs.C.Sparse(), core.Config{Finalizer: fin, Workers: workers})
	}}
}

// MineEngineSharded is MineEngine over the case's database cut into shards
// view shards (seqdb.ShardScanner), so Phase 3 probes scan shard by shard.
// The mined frequent set must be identical to every other engine's: the
// shard layout only changes how probe scans execute.
func MineEngineSharded(fin core.Finalizer, workers, shards int) Engine {
	name := fmt.Sprintf("%s/shards=%d", MineEngine(fin, workers).Name, shards)
	return Engine{Name: name, Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		db := seqdb.ShardScanner(seqdb.NewMemDB(cs.DB), shards)
		return mineCase(cs, db, cs.C, core.Config{Finalizer: fin, Workers: workers})
	}}
}

// MinePhase2Engine is MineEngine with Phase 2 forced onto one engine instead
// of the one core.PickPhase2Engine picks for the case (MineEngine's). The
// engines must agree exactly — growth replicates the level-wise labels
// bit-for-bit — so the frequent set must equal every other engine's.
func MinePhase2Engine(e core.Phase2Engine, fin core.Finalizer, workers int) Engine {
	name := fmt.Sprintf("core.Mine/%s/%s/workers=%d", e, fin, workers)
	return Engine{Name: name, Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		return mineCase(cs, seqdb.NewMemDB(cs.DB), cs.C, core.Config{
			Finalizer: fin, Workers: workers, Phase2Engine: e,
		})
	}}
}

// RemoteShardEngine is MineEngine with the probe scans served by remote
// shard workers over the in-process RPC harness: nodes servers each opening
// the case's full database, the coordinator pool sending one shard per node
// over the wire (matrix and patterns marshaled to JSON, per-block partial
// sums marshaled back). Distribution is purely an execution layout — the
// frequent set must equal every other engine's, which also pins the
// protocol's float64 round-trip to bit-exactness.
func RemoteShardEngine(fin core.Finalizer, nodes int) Engine {
	name := fmt.Sprintf("core.Mine/%s/remote nodes=%d", fin, nodes)
	return Engine{Name: name, Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		h := shardrpc.NewHarness(nodes, "battery-token", func() (seqdb.Scanner, error) {
			return seqdb.NewMemDB(cs.DB), nil
		})
		cfg := core.Config{Finalizer: fin, Remote: h.Pool(shardrpc.RetryPolicy{})}
		return mineCase(cs, seqdb.NewMemDB(cs.DB), cs.C, cfg)
	}}
}

// mineCase runs core.Mine over db and the matrix c with the case's
// parameters filled into cfg.
func mineCase(cs *Case, db seqdb.Scanner, c compat.Source, cfg core.Config) (*pattern.Set, error) {
	cfg.MinMatch, cfg.Delta, cfg.SampleSize = cs.MinMatch, cs.Delta, len(cs.DB)
	cfg.MaxLen, cfg.MaxGap, cfg.MemBudget = cs.MaxLen, cs.MaxGap, cs.MemBudget
	cfg.Rng = caseRng(cs)
	res, err := core.Mine(db, c, cfg)
	if err != nil {
		return nil, err
	}
	return res.Frequent, nil
}

// StreamEngine feeds the case's database through the incremental streaming
// pipeline in batch-sequence batches over an append-only log, advancing the
// stream after each batch, and returns the final frequent set. With the
// case's full-window sample the stream's final result must equal the batch
// pipeline's — and hence the oracle's — for every batch size and worker
// count: replay is purely an execution layout.
func StreamEngine(workers, batch int) Engine {
	name := fmt.Sprintf("stream.Advance/workers=%d/batch=%d", workers, batch)
	return Engine{Name: name, Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		dir, err := os.MkdirTemp("", "lspstream")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		log, err := seqdb.CreateAppend(filepath.Join(dir, "log.lsa"))
		if err != nil {
			return nil, err
		}
		defer log.Close()
		s, err := stream.New(log, stream.Config{
			C:          cs.C,
			MinMatch:   cs.MinMatch,
			Delta:      cs.Delta,
			SampleSize: len(cs.DB),
			MaxLen:     cs.MaxLen,
			MaxGap:     cs.MaxGap,
			MemBudget:  cs.MemBudget,
			Workers:    workers,
			Seed:       cs.Seed,
		})
		if err != nil {
			return nil, err
		}
		var res *stream.Result
		for lo := 0; lo < len(cs.DB); lo += batch {
			hi := lo + batch
			if hi > len(cs.DB) {
				hi = len(cs.DB)
			}
			for _, seq := range cs.DB[lo:hi] {
				if _, err := log.Append(seq); err != nil {
					return nil, err
				}
			}
			if res, err = s.Advance(context.Background()); err != nil {
				return nil, err
			}
		}
		return res.Frequent, nil
	}}
}

// ExhaustiveEngine is the deterministic one-scan-per-level reference miner.
func ExhaustiveEngine() Engine {
	return Engine{Name: "miner.Exhaustive/match", Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		res, err := core.Exhaustive(seqdb.NewMemDB(cs.DB), cs.C, cs.MinMatch, caseOpts(cs))
		if err != nil {
			return nil, err
		}
		return res.Frequent, nil
	}}
}

// MaxMinerEngine is the §5.6 look-ahead baseline.
func MaxMinerEngine() Engine {
	return Engine{Name: "maxminer.Mine", Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		db := seqdb.NewMemDB(cs.DB)
		res, err := maxminer.Mine(cs.C.Size(), miner.MatchDBValuer(db, cs.C), cs.MinMatch, caseOpts(cs))
		if err != nil {
			return nil, err
		}
		return res.Frequent, nil
	}}
}

// SupportSweepEngine is the occurrence-driven support miner.
func SupportSweepEngine() Engine {
	return Engine{Name: "support.MineBySweep", Ref: RefSupport, Mine: func(cs *Case) (*pattern.Set, error) {
		set, _, err := support.MineBySweep(seqdb.NewMemDB(cs.DB), cs.MinMatch, cs.MaxLen, cs.MaxGap)
		return set, err
	}}
}

// SupportExhaustiveEngine is the candidate-driven support miner.
func SupportExhaustiveEngine() Engine {
	return Engine{Name: "miner.Exhaustive/support", Ref: RefSupport, Mine: func(cs *Case) (*pattern.Set, error) {
		res, err := core.ExhaustiveSupport(seqdb.NewMemDB(cs.DB), cs.MinMatch, cs.C.Size(), caseOpts(cs))
		if err != nil {
			return nil, err
		}
		return res.Frequent, nil
	}}
}

// Battery returns the standard cross-check battery of 20 engines: the full
// pipeline with its Phase 2 engine picked from the case and forced onto
// each engine, several worker counts, the sparse matrix form, sharded and
// remote-worker Phase 3 probe scans, both resolving finalizers (border
// collapsing and level-wise), the streaming pipeline, the exhaustive miner,
// Max-Miner, and both support miners.
func Battery() []Engine {
	return []Engine{
		MineEngine(core.BorderCollapsing, 0),
		MineEngine(core.BorderCollapsing, 3),
		MineEngine(core.BorderCollapsing, 2),
		MineEngine(core.LevelWise, 2),
		MineEngineSparse(core.BorderCollapsing, 2),
		MineEngineSharded(core.BorderCollapsing, 0, 4),
		MineEngineSharded(core.BorderCollapsing, 2, 3),
		MinePhase2Engine(core.Phase2Levelwise, core.BorderCollapsing, 2),
		MinePhase2Engine(core.Phase2Growth, core.BorderCollapsing, 0),
		MinePhase2Engine(core.Phase2Growth, core.BorderCollapsing, 3),
		MinePhase2Engine(core.Phase2Growth, core.BorderCollapsing, 2),
		MinePhase2Engine(core.Phase2Growth, core.LevelWise, 2),
		RemoteShardEngine(core.BorderCollapsing, 3),
		StreamEngine(0, 1),
		StreamEngine(3, 4),
		StreamEngine(2, 3),
		ExhaustiveEngine(),
		MaxMinerEngine(),
		SupportSweepEngine(),
		SupportExhaustiveEngine(),
	}
}

// Divergence is one conformance failure: the engine whose output disagreed
// with the oracle, the seed that produced it, and a minimized reproduction.
type Divergence struct {
	Seed   int64
	Engine string
	// Err is set when the engine failed outright instead of diverging.
	Err error
	// Missing are oracle-frequent patterns the engine dropped; Extra are
	// engine-frequent patterns the oracle rejects. Values index their oracle
	// values by Pattern.Key.
	Missing, Extra []pattern.Pattern
	Values         map[string]float64
	// Case is the minimized reproduction; Original the full generated case.
	Case, Original *Case
}

// String renders a complete repro: seed, parameters, matrix, database, and
// the disagreeing patterns with their oracle values.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIVERGENCE seed=%d engine=%s\n", d.Seed, d.Engine)
	cs := d.Case
	if cs == nil {
		cs = d.Original
	}
	if d.Err != nil {
		fmt.Fprintf(&b, "  engine error: %v\n", d.Err)
	}
	if cs != nil {
		fmt.Fprintf(&b, "  min_match=%.9g delta=%g max_len=%d max_gap=%d mem_budget=%d n=%d\n",
			cs.MinMatch, cs.Delta, cs.MaxLen, cs.MaxGap, cs.MemBudget, len(cs.DB))
		var mat bytes.Buffer
		if _, err := cs.C.WriteTo(&mat); err == nil {
			for _, line := range strings.Split(strings.TrimRight(mat.String(), "\n"), "\n") {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
		for i, seq := range cs.DB {
			fmt.Fprintf(&b, "  seq %d: %v\n", i, seq)
		}
	}
	for _, p := range d.Missing {
		fmt.Fprintf(&b, "  missing %v (oracle value %.12g)\n", p, d.Values[p.Key()])
	}
	for _, p := range d.Extra {
		fmt.Fprintf(&b, "  extra %v (oracle value %.12g)\n", p, d.Values[p.Key()])
	}
	fmt.Fprintf(&b, "  reproduce: go run ./cmd/lspverify -seed %d\n", d.Seed)
	return b.String()
}

// CheckCase cross-checks every engine against the oracle on one case,
// returning the first divergence (nil if all agree). Patterns whose oracle
// value lies within BoundaryTol of the threshold are exempt from the
// comparison (see BoundaryTol).
func CheckCase(cs *Case, engines []Engine) *Divergence {
	var matchSet, supSet *pattern.Set
	var matchVals, supVals map[string]float64
	for _, e := range engines {
		var want *pattern.Set
		var vals map[string]float64
		switch e.Ref {
		case RefSupport:
			if supSet == nil {
				supSet, supVals = FrequentSupport(cs.C.Size(), cs.DB, cs.MinMatch, cs.MaxLen, cs.MaxGap)
			}
			want, vals = supSet, supVals
		default:
			if matchSet == nil {
				matchSet, matchVals = FrequentMatch(cs.C, cs.DB, cs.MinMatch, cs.MaxLen, cs.MaxGap)
			}
			want, vals = matchSet, matchVals
		}
		got, err := e.Mine(cs)
		if err != nil {
			return &Divergence{Seed: cs.Seed, Engine: e.Name, Err: err, Case: cs, Values: vals}
		}
		missing, extra := diffSets(cs, e.Ref, got, want, vals)
		if len(missing)+len(extra) > 0 {
			return &Divergence{
				Seed: cs.Seed, Engine: e.Name,
				Missing: missing, Extra: extra,
				Values: vals, Case: cs,
			}
		}
	}
	return nil
}

// diffSets compares an engine's frequent set to the oracle's, exempting
// threshold-boundary patterns. Extra patterns outside the enumerated space
// are valued directly.
func diffSets(cs *Case, ref RefKind, got, want *pattern.Set, vals map[string]float64) (missing, extra []pattern.Pattern) {
	boundary := func(v float64) bool { return math.Abs(v-cs.MinMatch) <= BoundaryTol }
	want.ForEach(func(p pattern.Pattern) bool {
		if !got.Contains(p) && !boundary(vals[p.Key()]) {
			missing = append(missing, p)
		}
		return true
	})
	got.ForEach(func(p pattern.Pattern) bool {
		if want.Contains(p) {
			return true
		}
		v, ok := vals[p.Key()]
		if !ok {
			if ref == RefSupport {
				v = DBSupport(p, cs.DB)
			} else {
				v = DBMatch(cs.C, p, cs.DB)
			}
			vals[p.Key()] = v
		}
		if !boundary(v) {
			extra = append(extra, p)
		}
		return true
	})
	sortPatterns(missing)
	sortPatterns(extra)
	return missing, extra
}

func sortPatterns(ps []pattern.Pattern) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].Key() < ps[b].Key() })
}

// CheckSeed generates the case for a seed, cross-checks it, and on failure
// minimizes the database against the failing engine before returning the
// divergence (nil if the seed passes).
func CheckSeed(seed int64, engines []Engine) *Divergence {
	cs := GenCase(seed)
	d := CheckCase(cs, engines)
	if d == nil {
		return nil
	}
	d.Original = cs
	if culprit := engineByName(engines, d.Engine); culprit != nil {
		min := Minimize(cs, []Engine{*culprit})
		if dm := CheckCase(min, []Engine{*culprit}); dm != nil {
			dm.Seed = seed
			dm.Original = cs
			return dm
		}
	}
	return d
}

func engineByName(engines []Engine, name string) *Engine {
	for i := range engines {
		if engines[i].Name == name {
			return &engines[i]
		}
	}
	return nil
}

// Minimize greedily shrinks a diverging case while the divergence (against
// the given engines) persists: whole sequences are dropped first, then
// sequences are truncated from the tail, to a fixpoint. The returned case
// still diverges and is typically a handful of short sequences.
func Minimize(cs *Case, engines []Engine) *Case {
	diverges := func(c *Case) bool { return CheckCase(c, engines) != nil }
	cur := cs.clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.DB) && len(cur.DB) > 1; i++ {
			trial := cur.clone()
			trial.DB = append(trial.DB[:i], trial.DB[i+1:]...)
			if diverges(trial) {
				cur = trial
				changed = true
				i--
			}
		}
		for i := range cur.DB {
			for len(cur.DB[i]) > 1 {
				trial := cur.clone()
				trial.DB[i] = trial.DB[i][:len(trial.DB[i])-1]
				if !diverges(trial) {
					break
				}
				cur = trial
				changed = true
			}
		}
	}
	return cur
}

// CommittedSeeds is the regression corpus: the seeds every lspverify run
// replays before any fresh ones. The range covers every matrix family,
// finalizer, and kernel combination GenCase rotates through.
var CommittedSeeds = func() []int64 {
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}()

// VerifyOptions parameterizes a corpus run.
type VerifyOptions struct {
	// Seeds are the cases to run.
	Seeds []int64
	// Engines is the battery (nil = Battery()).
	Engines []Engine
	// Properties additionally runs the metamorphic harness per seed.
	Properties bool
	// Verbose prints one line per passing seed.
	Verbose bool
}

// Verify runs the corpus and prints every divergence to w, returning the
// number of failing seeds (0 = full conformance).
func Verify(w io.Writer, opt VerifyOptions) int {
	engines := opt.Engines
	if engines == nil {
		engines = Battery()
	}
	failures := 0
	picked := map[core.Phase2Engine]int{}
	for _, seed := range opt.Seeds {
		cs := GenCase(seed)
		picked[core.PickPhase2Engine(cs.DB, cs.C.Size())]++ // the sample is the whole database
		if opt.Properties {
			if err := CheckProperties(cs); err != nil {
				failures++
				fmt.Fprintf(w, "PROPERTY VIOLATION seed=%d: %v\n", seed, err)
				continue
			}
		}
		if d := CheckSeed(seed, engines); d != nil {
			failures++
			fmt.Fprint(w, d.String())
		} else if opt.Verbose {
			fmt.Fprintf(w, "ok seed=%d (%d engines)\n", seed, len(engines))
		}
	}
	fmt.Fprintf(w, "lspverify: phase 2 rule sent %d cases to %s, %d to %s\n",
		picked[core.Phase2Levelwise], core.Phase2Levelwise, picked[core.Phase2Growth], core.Phase2Growth)
	fmt.Fprintf(w, "lspverify: %d seeds, %d engines, %d failures\n", len(opt.Seeds), len(engines), failures)
	return failures
}
