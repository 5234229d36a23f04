package miner

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

func randomWorkload(t testing.TB, seed int64, n, l int) (*seqdb.MemDB, *compat.Matrix, []pattern.Pattern) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const m = 10
	seqs := make([][]pattern.Symbol, n)
	for i := range seqs {
		s := make([]pattern.Symbol, l)
		for j := range s {
			s[j] = pattern.Symbol(rng.Intn(m))
		}
		seqs[i] = s
	}
	c, err := compat.UniformNoise(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var ps []pattern.Pattern
	for i := 0; i < 37; i++ {
		p := make(pattern.Pattern, 1+rng.Intn(3))
		for j := range p {
			p[j] = pattern.Symbol(rng.Intn(m))
		}
		ps = append(ps, p)
	}
	return seqdb.NewMemDB(seqs), c, ps
}

func TestParallelValuerMatchesSequential(t *testing.T) {
	db, c, ps := randomWorkload(t, 1, 200, 30)
	seq, err := MatchDBValuer(db, c)(ps)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		par, err := ParallelMatchDBValuer(db, c, workers)(ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: got %d values", workers, len(par))
		}
		for i := range seq {
			if math.Abs(par[i]-seq[i]) > 1e-12 {
				t.Fatalf("workers=%d pattern %d: %v vs %v", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestParallelValuerOnDiskDB(t *testing.T) {
	mem, c, ps := randomWorkload(t, 2, 300, 40)
	path := filepath.Join(t.TempDir(), "p.lsq")
	if err := seqdb.WriteFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := seqdb.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatchDBValuer(mem, c)(ps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParallelMatchDBValuer(disk, c, 4)(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("pattern %d: %v vs %v (DiskDB buffer reuse?)", i, got[i], want[i])
		}
	}
	if disk.Scans() != 1 {
		t.Errorf("parallel valuer consumed %d scans, want 1", disk.Scans())
	}
}

func TestParallelValuerEmptyBatch(t *testing.T) {
	db, c, _ := randomWorkload(t, 3, 10, 5)
	out, err := ParallelMatchDBValuer(db, c, 4)(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
	// Regression: an empty batch used to burn a full database scan counting
	// nothing. It must answer without touching the database.
	if db.Scans() != 0 {
		t.Errorf("empty batch consumed %d scans, want 0", db.Scans())
	}
}

func TestValuersEmptyBatchNoScan(t *testing.T) {
	db, c, _ := randomWorkload(t, 3, 10, 5)
	valuers := map[string]Valuer{
		"MatchDBValuer": MatchDBValuer(db, c),
		"DBValuer":      DBValuer(db, match.NewMatch(c)),
	}
	for name, v := range valuers {
		out, err := v(nil)
		if err != nil || len(out) != 0 {
			t.Errorf("%s: empty batch: %v, %v", name, out, err)
		}
	}
	if db.Scans() != 0 {
		t.Errorf("empty batches consumed %d scans, want 0", db.Scans())
	}
}

func TestParallelValuerPropagatesScanError(t *testing.T) {
	db, c, ps := randomWorkload(t, 4, 50, 10)
	boom := errors.New("boom")
	failing := &failingScanner{inner: db, failAt: 7, err: boom}
	_, err := ParallelMatchDBValuer(failing, c, 4)(ps)
	if !errors.Is(err, boom) {
		t.Errorf("err=%v, want boom", err)
	}
}

// failingScanner aborts the pass at a given sequence index.
type failingScanner struct {
	inner  seqdb.Scanner
	failAt int
	err    error
}

func (f *failingScanner) Scan(fn func(int, []pattern.Symbol) error) error {
	return f.inner.Scan(func(id int, seq []pattern.Symbol) error {
		if id == f.failAt {
			return f.err
		}
		return fn(id, seq)
	})
}

func (f *failingScanner) Len() int    { return f.inner.Len() }
func (f *failingScanner) Scans() int  { return f.inner.Scans() }
func (f *failingScanner) ResetScans() { f.inner.ResetScans() }
