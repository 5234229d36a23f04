package seqdb

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/pattern"
)

func randomDB(seed int64, n, maxLen int) *MemDB {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([][]pattern.Symbol, n)
	for i := range seqs {
		l := 1 + rng.Intn(maxLen)
		s := make([]pattern.Symbol, l)
		for j := range s {
			s[j] = pattern.Symbol(rng.Intn(8))
		}
		seqs[i] = s
	}
	return NewMemDB(seqs)
}

func collect(t *testing.T, db Scanner) map[int][]pattern.Symbol {
	t.Helper()
	out := make(map[int][]pattern.Symbol)
	if err := db.Scan(func(id int, seq []pattern.Symbol) error {
		if _, dup := out[id]; dup {
			t.Fatalf("id %d delivered twice", id)
		}
		out[id] = append([]pattern.Symbol(nil), seq...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestShardBoundsProperties(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 100, 4096, 12345} {
		block := ProbeBlockSize(n)
		if block < 1 {
			t.Fatalf("n=%d: block %d", n, block)
		}
		for shards := 1; shards <= 9; shards++ {
			bounds := shardBounds(n, shards, block)
			if bounds[0] != 0 || bounds[len(bounds)-1] != n {
				t.Fatalf("n=%d shards=%d: bounds %v do not cover [0,%d)", n, shards, bounds, n)
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] <= bounds[i-1] && !(n == 0 && len(bounds) == 2) {
					t.Fatalf("n=%d shards=%d: empty shard in %v", n, shards, bounds)
				}
				if i < len(bounds)-1 && bounds[i]%block != 0 {
					t.Fatalf("n=%d shards=%d: boundary %d not block-aligned (block %d)", n, shards, bounds[i], block)
				}
			}
		}
	}
}

func TestShardScannerCoversDatabase(t *testing.T) {
	db := randomDB(1, 500, 12)
	want := collect(t, db)
	for _, n := range []int{1, 2, 3, 7, 16, 100} {
		sh := ShardScanner(db, n)
		if sh.Len() != db.Len() {
			t.Fatalf("n=%d: Len %d != %d", n, sh.Len(), db.Len())
		}
		// Shard-by-shard union equals the database, with global ids.
		got := make(map[int][]pattern.Symbol)
		for i := 0; i < sh.NumShards(); i++ {
			lo, hi := sh.ShardStart(i), sh.ShardStart(i+1)
			if err := sh.Shard(i).Scan(func(id int, seq []pattern.Symbol) error {
				if id < lo || id >= hi {
					t.Fatalf("shard %d delivered id %d outside [%d,%d)", i, id, lo, hi)
				}
				got[id] = append([]pattern.Symbol(nil), seq...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d sequences, want %d", n, len(got), len(want))
		}
		for id, seq := range want {
			g := got[id]
			if len(g) != len(seq) {
				t.Fatalf("n=%d id=%d: %v != %v", n, id, g, seq)
			}
			for j := range seq {
				if g[j] != seq[j] {
					t.Fatalf("n=%d id=%d: %v != %v", n, id, g, seq)
				}
			}
		}
	}
}

func TestShardScansDoNotCountParentPasses(t *testing.T) {
	db := randomDB(2, 300, 8)
	sh := ShardScanner(db, 4)
	for i := 0; i < sh.NumShards(); i++ {
		if err := sh.Shard(i).Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if db.Scans() != 0 {
		t.Errorf("shard scans completed %d parent passes, want 0", db.Scans())
	}
	if sh.Scans() != 0 {
		t.Errorf("Sharded.Scans=%d before NotePass", sh.Scans())
	}
	sh.NotePass()
	if sh.Scans() != 1 {
		t.Errorf("Sharded.Scans=%d after NotePass, want 1", sh.Scans())
	}
	// A sequential full pass through the Sharded counts one logical scan.
	if err := sh.Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if sh.Scans() != 2 {
		t.Errorf("Sharded.Scans=%d after full pass, want 2", sh.Scans())
	}
}

func TestShardScannerOverDiskDoesNotCountScans(t *testing.T) {
	mem := randomDB(3, 200, 10)
	path := filepath.Join(t.TempDir(), "db.lsq")
	if err := WriteFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sh := ShardScanner(disk, 3)
	for i := 0; i < sh.NumShards(); i++ {
		if err := sh.Shard(i).Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if disk.Scans() != 0 {
		t.Errorf("disk shard scans completed %d full passes, want 0", disk.Scans())
	}
	if n, ok := RealBytes(sh); !ok || n == 0 {
		t.Errorf("RealBytes over DiskDB shards: %d, %v; want real nonzero", n, ok)
	}
}

func TestMemAndDiskRangeAgree(t *testing.T) {
	mem := randomDB(4, 150, 9)
	path := filepath.Join(t.TempDir(), "db.lsq")
	if err := WriteFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 150}, {10, 20}, {149, 150}, {0, 1}, {50, 50}, {140, 200}} {
		for _, db := range []Scanner{mem, disk} {
			rs := db.(RangeScanner)
			var ids []int
			if err := rs.ScanRangeContext(nil, r[0], r[1], func(id int, seq []pattern.Symbol) error {
				ids = append(ids, id)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			lo, hi := r[0], r[1]
			if hi > 150 {
				hi = 150
			}
			wantN := hi - lo
			if wantN < 0 {
				wantN = 0
			}
			if len(ids) != wantN {
				t.Fatalf("%T range %v: %d ids, want %d", db, r, len(ids), wantN)
			}
			for k, id := range ids {
				if id != lo+k {
					t.Fatalf("%T range %v: ids %v not contiguous from %d", db, r, ids, lo)
				}
			}
		}
	}
	if mem.Scans() != 0 || disk.Scans() != 0 {
		t.Errorf("range deliveries counted scans: mem=%d disk=%d", mem.Scans(), disk.Scans())
	}
}

func TestWriteShardFilesRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 37, 400} {
		db := randomDB(5, size, 11)
		base := filepath.Join(t.TempDir(), "db")
		paths, err := WriteShardFiles(db, base, 4)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := OpenShardSet(paths)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Len() != db.Len() {
			t.Fatalf("size=%d: shard set Len %d, want %d", size, sh.Len(), db.Len())
		}
		want := collect(t, db)
		got := collect(t, sh)
		if len(got) != len(want) {
			t.Fatalf("size=%d: %d sequences, want %d", size, len(got), len(want))
		}
		for id, seq := range want {
			g := got[id]
			if len(g) != len(seq) {
				t.Fatalf("size=%d id=%d: %v != %v", size, id, g, seq)
			}
			for j := range seq {
				if g[j] != seq[j] {
					t.Fatalf("size=%d id=%d: %v != %v", size, id, g, seq)
				}
			}
		}
		// Native shard boundaries must match the view boundaries, so mining
		// either layout accumulates on identical probe blocks.
		view := ShardScanner(db, 4)
		if view.NumShards() == sh.NumShards() {
			for i := 0; i <= sh.NumShards(); i++ {
				if sh.ShardStart(i) != view.ShardStart(i) {
					t.Fatalf("size=%d: native starts differ from view starts at %d", size, i)
				}
			}
		}
		if !sh.ReportsBytes() {
			t.Errorf("size=%d: native shard set should report real bytes", size)
		}
	}
}

// flakyNoRange fails its first fail attempts at id 1 and deliberately does
// not implement RangeScanner, so shard passes over it must take the
// filtered-full-scan fallback (and retries of it).
type flakyNoRange struct {
	inner *MemDB
	fail  int
	err   error
}

func (s *flakyNoRange) Len() int    { return s.inner.Len() }
func (s *flakyNoRange) Scans() int  { return s.inner.Scans() }
func (s *flakyNoRange) ResetScans() { s.inner.ResetScans() }
func (s *flakyNoRange) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return s.ScanContext(nil, fn)
}
func (s *flakyNoRange) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return s.inner.ScanContext(ctx, func(id int, seq []pattern.Symbol) error {
		if id == 1 && s.fail > 0 {
			s.fail--
			return s.err
		}
		return fn(id, seq)
	})
}

func TestShardedRetryRangePass(t *testing.T) {
	blip := MarkTransient(errors.New("blip"))
	inner := &flakyNoRange{inner: randomDB(6, 100, 6), fail: 2, err: blip}
	retry := &RetryScanner{Inner: inner, MaxRetries: 5}
	sh := ShardScanner(retry, 3)
	for i := 0; i < sh.NumShards(); i++ {
		var ids []int
		err := ScanPassContext(context.Background(), sh.Shard(i), func() (func(id int, seq []pattern.Symbol) error, error) {
			ids = nil // fresh per attempt: a retried pass must not double-deliver
			return func(id int, seq []pattern.Symbol) error {
				ids = append(ids, id)
				return nil
			}, nil
		})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if want := sh.ShardStart(i+1) - sh.ShardStart(i); len(ids) != want {
			t.Fatalf("shard %d delivered %d ids, want %d", i, len(ids), want)
		}
	}
	if st := retry.ScanStats(); st.Permanent != 0 {
		t.Errorf("range sentinel leaked into retry stats: %+v", st)
	}
}

func TestShardSetPaths(t *testing.T) {
	got := ShardSetPaths("a.lsq, b.lsq,,c.lsq")
	if len(got) != 3 || got[0] != "a.lsq" || got[1] != "b.lsq" || got[2] != "c.lsq" {
		t.Errorf("ShardSetPaths: %v", got)
	}
	if got := ShardSetPaths("only.lsq"); len(got) != 1 {
		t.Errorf("single path: %v", got)
	}
}
