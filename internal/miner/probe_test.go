package miner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/telemetry"
)

func remoteHarness(db *seqdb.MemDB, nodes int) *shardrpc.Harness {
	return shardrpc.NewHarness(nodes, "", func() (seqdb.Scanner, error) { return db, nil })
}

func instantPool(h *shardrpc.Harness) *shardrpc.Pool {
	p := h.Pool(shardrpc.RetryPolicy{Base: time.Microsecond})
	p.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	return p
}

// writeShardSet materializes db as a native n-shard set and opens it.
func writeShardSet(t *testing.T, db seqdb.Scanner, n int) *seqdb.Sharded {
	t.Helper()
	paths, err := seqdb.WriteShardFiles(db, filepath.Join(t.TempDir(), "db"), n)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := seqdb.OpenShardSet(paths)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestGatherBitIdentical: every probe layout — the unsharded store at any
// worker count, view shards, native shard sets and remote nodes — returns
// the same bits, and those stay within float reassociation of a plain
// in-order running sum.
func TestGatherBitIdentical(t *testing.T) {
	db, c, ps := randomWorkload(t, 11, 400, 12)
	inOrder, err := DBValuer(db, match.NewMatch(c))(ps)
	if err != nil {
		t.Fatal(err)
	}
	type layout struct {
		name string
		v    Valuer
	}
	var layouts []layout
	for _, w := range []int{1, 2, 7} {
		layouts = append(layouts, layout{fmt.Sprintf("unsharded/workers=%d", w), ParallelMatchDBValuer(db, c, w)})
	}
	for _, n := range []int{2, 3, 5, 8} {
		for _, w := range []int{0, 3} {
			layouts = append(layouts,
				layout{fmt.Sprintf("views=%d/workers=%d", n, w), ParallelMatchDBValuer(seqdb.ShardScanner(db, n), c, w)},
				layout{fmt.Sprintf("native=%d/workers=%d", n, w), ParallelMatchDBValuer(writeShardSet(t, db, n), c, w)})
		}
	}
	for _, nodes := range []int{2, 3} {
		v := ProbeValuer(context.Background(), db, c, 0, instantPool(remoteHarness(db, nodes)), nil)
		layouts = append(layouts, layout{fmt.Sprintf("remote nodes=%d", nodes), v})
	}

	var ref []float64
	for _, l := range layouts {
		got, err := l.v(ps)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if ref == nil {
			ref = got
			for i := range ps {
				if math.Abs(got[i]-inOrder[i]) > 1e-12 {
					t.Fatalf("%s pattern %d: %v vs in-order %v", l.name, i, got[i], inOrder[i])
				}
			}
			continue
		}
		for i := range ps {
			if got[i] != ref[i] {
				t.Fatalf("%s pattern %d: %v != %v (not bit-identical)", l.name, i, got[i], ref[i])
			}
		}
	}
}

// TestShardedValuerInvariance: over view shards the gather returns
// bit-identical values for every shard and worker count, from one shard to
// more shards than probe blocks.
func TestShardedValuerInvariance(t *testing.T) {
	db, c, ps := randomWorkload(t, 11, 400, 12)
	var ref []float64
	for _, shards := range []int{1, 2, 3, 5, 8, 64} {
		for _, workers := range []int{0, 1, 2, 7} {
			got, err := ParallelMatchDBValuer(seqdb.ShardScanner(db, shards), c, workers)(ps)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				continue
			}
			for i := range ps {
				if got[i] != ref[i] {
					t.Fatalf("shards=%d workers=%d pattern %d: %v != %v (not bit-identical)",
						shards, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestRemoteValuerBitIdentical: a remote pool returns the same bits as the
// local gather for every coordinator shard count, node count and worker
// count — distribution is purely an execution layout.
func TestRemoteValuerBitIdentical(t *testing.T) {
	db, c, ps := randomWorkload(t, 21, 300, 12)
	for _, shards := range []int{1, 3, 7} {
		want, err := MatchDBValuer(seqdb.ShardScanner(db, shards), c)(ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{1, 2, 5} {
			for _, workers := range []int{0, 2} {
				pool := instantPool(remoteHarness(db, nodes))
				got, err := ProbeValuer(nil, seqdb.ShardScanner(db, shards), c, workers, pool, nil)(ps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ps {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("shards=%d nodes=%d workers=%d pattern %d: remote %v != local %v",
							shards, nodes, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedValuerAgreesWithSequential: block-merged sums over a sharded
// store differ from the in-order running sum only by float reassociation.
func TestShardedValuerAgreesWithSequential(t *testing.T) {
	db, c, ps := randomWorkload(t, 12, 300, 10)
	want, err := match.DB(db, match.NewMatch(c), ps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatchDBValuer(seqdb.ShardScanner(db, 4), c)(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("pattern %d: sharded %v vs sequential %v", i, got[i], want[i])
		}
	}
}

// TestShardedValuerScanAccounting: one gather over a sharded store is one
// logical pass on the Sharded, no full pass on the backing store, and no
// pass at all for an empty batch.
func TestShardedValuerScanAccounting(t *testing.T) {
	db, c, ps := randomWorkload(t, 13, 200, 8)
	sh := seqdb.ShardScanner(db, 3)
	for _, w := range []int{1, 4} {
		sh.ResetScans()
		v := ParallelMatchDBValuer(sh, c, w)
		if out, err := v(nil); err != nil || len(out) != 0 {
			t.Fatalf("empty batch: %v, %v", out, err)
		}
		if sh.Scans() != 0 {
			t.Fatalf("empty batch consumed %d logical passes, want 0", sh.Scans())
		}
		if _, err := v(ps); err != nil {
			t.Fatal(err)
		}
		if sh.Scans() != 1 {
			t.Errorf("workers=%d: Sharded.Scans=%d after one probe, want 1", w, sh.Scans())
		}
		if db.Scans() != 0 {
			t.Errorf("workers=%d: backing store counted %d full passes, want 0", w, db.Scans())
		}
	}
}

// TestGatherRetryDoesNotDoubleCount: a transient fault mid-pass re-runs the
// pass through the RetryScanner, and the re-run's partials replace the
// failed attempt's, for one shard and for several. The fault injector
// numbers pass attempts in the order they start, so the sharded case scans
// its shards one at a time.
func TestGatherRetryDoesNotDoubleCount(t *testing.T) {
	db, c, ps := randomWorkload(t, 14, 150, 10)
	want, err := MatchDBValuer(db, c)(ps)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ shards, workers int }{{1, 1}, {1, 3}, {3, 1}} {
		retry := &seqdb.RetryScanner{Inner: faults.New(db, faults.TransientOn(1, 10)), Sleep: func(time.Duration) {}}
		var store seqdb.Scanner = retry
		if tc.shards > 1 {
			store = seqdb.ShardScanner(retry, tc.shards)
		}
		got, err := ParallelMatchDBValuer(store, c, tc.workers)(ps)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if retry.ScanStats().Retries == 0 {
			t.Fatalf("%+v: the fault never fired", tc)
		}
		for i := range ps {
			if got[i] != want[i] {
				t.Fatalf("%+v pattern %d: %v != %v after a retried pass", tc, i, got[i], want[i])
			}
		}
	}
}

// cancelAfter cancels its context once n sequences have been delivered,
// over full passes and shard range deliveries alike (shards may be scanned
// concurrently).
type cancelAfter struct {
	*seqdb.MemDB
	n      int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (s *cancelAfter) count(fn func(id int, seq []pattern.Symbol) error) func(id int, seq []pattern.Symbol) error {
	return func(id int, seq []pattern.Symbol) error {
		if s.seen.Add(1) == s.n {
			s.cancel()
		}
		return fn(id, seq)
	}
}

func (s *cancelAfter) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return s.MemDB.ScanContext(ctx, s.count(fn))
}

func (s *cancelAfter) ScanRangeContext(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error {
	return s.MemDB.ScanRangeContext(ctx, lo, hi, s.count(fn))
}

// TestGatherCancellation: a cancelled probe returns the context's error on
// every layout, and no matching goroutine outlives the call.
func TestGatherCancellation(t *testing.T) {
	db, c, ps := randomWorkload(t, 15, 400, 12)
	before := runtime.NumGoroutine()
	for _, w := range []int{1, 4} {
		for _, shards := range []int{1, 3} {
			ctx, cancel := context.WithCancel(context.Background())
			var store seqdb.Scanner = &cancelAfter{MemDB: db, n: 150, cancel: cancel}
			if shards > 1 {
				store = seqdb.ShardScanner(store, shards)
			}
			_, err := ProbeValuer(ctx, store, c, w, nil, nil)(ps)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d shards=%d: err=%v, want context.Canceled", w, shards, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after cancelled probes (%d before)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// barrierDB lets each range scan deliver only once n of them have started,
// so the scans finish only if they run at once.
type barrierDB struct {
	*seqdb.MemDB
	started sync.WaitGroup
}

func (b *barrierDB) ScanRangeContext(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error {
	b.started.Done()
	all := make(chan struct{})
	go func() { b.started.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		return errors.New("shard scans did not overlap")
	}
	return b.MemDB.ScanRangeContext(ctx, lo, hi, fn)
}

// TestGatherScansShardsConcurrently: a sharded layout scans up to workers
// shards at once, and the values stay those of one inline pass.
func TestGatherScansShardsConcurrently(t *testing.T) {
	db, c, ps := randomWorkload(t, 25, 120, 8)
	want, err := MatchDBValuer(seqdb.ShardScanner(db, 3), c)(ps)
	if err != nil {
		t.Fatal(err)
	}
	b := &barrierDB{MemDB: db}
	b.started.Add(3)
	got, err := ParallelMatchDBValuer(seqdb.ShardScanner(b, 3), c, 3)(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if got[i] != want[i] {
			t.Fatalf("pattern %d: %v != %v", i, got[i], want[i])
		}
	}
}

// synthDB generates its sequences on every pass into one reused buffer, as
// a disk store delivers them, so a test can scan long databases without
// holding them in memory.
type synthDB struct {
	n, length int
	scans     int
}

func (s *synthDB) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	seq := make([]pattern.Symbol, s.length)
	for id := 0; id < s.n; id++ {
		for j := range seq {
			seq[j] = pattern.Symbol((id*7 + j*j) % 10)
		}
		if err := fn(id, seq); err != nil {
			return err
		}
	}
	s.scans++
	return nil
}

func (s *synthDB) Len() int    { return s.n }
func (s *synthDB) Scans() int  { return s.scans }
func (s *synthDB) ResetScans() { s.scans = 0 }

// TestGatherChunkedBlocks: probe blocks longer than one pipeline chunk — by
// sequence count, by symbol count, and with sequences longer than a chunk —
// are still summed by one writer in position order, bit-identical to the
// inline pass.
func TestGatherChunkedBlocks(t *testing.T) {
	_, c, ps := randomWorkload(t, 18, 1, 1)
	ps = ps[:5]
	for _, db := range []*synthDB{
		{n: 2 * 256 * match.RunSeqs, length: 6},   // 2 chunks per block
		{n: 100, length: match.RunSymbols / 3},    // 3 sequences per chunk
		{n: 40, length: match.RunSymbols*2 + 100}, // each sequence cut into pieces
	} {
		want, err := MatchDBValuer(db, c)(ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3} {
			got, err := ParallelMatchDBValuer(db, c, w)(ps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ps {
				if got[i] != want[i] {
					t.Fatalf("n=%d length=%d workers=%d pattern %d: %v != %v (not bit-identical)",
						db.n, db.length, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGatherMemoryBounded: the parallel pass copies sequences into a fixed
// pool of recycled chunks, so what one probe pass allocates — an upper
// bound on the copied bytes it holds at once — does not grow with the
// database length.
func TestGatherMemoryBounded(t *testing.T) {
	_, c, ps := randomWorkload(t, 19, 1, 1)
	ps = ps[:1]
	alloc := func(n int) uint64 {
		v := ParallelMatchDBValuer(&synthDB{n: n, length: 8}, c, 4)
		if _, err := v(ps); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := v(ps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// From 256*match.RunSeqs sequences on, a probe block fills whole chunks.
	n := 256 * match.RunSeqs
	small, large := alloc(n), alloc(8*n)
	t.Logf("one pass allocates %d bytes at %d sequences, %d at %d", small, n, large, 8*n)
	if large > 2*small+1<<20 {
		t.Fatalf("one pass over 8x the sequences allocates %d bytes against %d: the copies grow with the database", large, small)
	}
}

// TestGatherBytes: probe passes report real bytes for disk-resident stores
// and estimate them for memory-resident ones, on one shard and on several.
func TestGatherBytes(t *testing.T) {
	mem, c, ps := randomWorkload(t, 16, 120, 10)
	path := filepath.Join(t.TempDir(), "db.lsq")
	if err := seqdb.WriteFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := seqdb.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		store     seqdb.Scanner
		estimated bool
	}{
		{"memory", mem, true},
		{"disk", disk, false},
		{"memory views", seqdb.ShardScanner(mem, 3), true},
		{"native disk set", writeShardSet(t, mem, 3), false},
	} {
		m := &telemetry.Metrics{}
		m.SetPhase(3)
		v := ProbeValuer(nil, telemetry.NewScanner(tc.store, m), c, 2, nil, m)
		if _, err := v(ps); err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		ph := snap.Phases[2]
		if ph.Scans != 1 || ph.Sequences != int64(mem.Len()) || ph.Bytes <= 0 {
			t.Errorf("%s: scans=%d sequences=%d bytes=%d, want 1 pass of %d sequences with bytes",
				tc.name, ph.Scans, ph.Sequences, ph.Bytes, mem.Len())
		}
		if snap.BytesEstimated != tc.estimated {
			t.Errorf("%s: bytes_estimated=%v, want %v", tc.name, snap.BytesEstimated, tc.estimated)
		}
	}
}

// TestGatherVerifiesDiskTrailer: a probe over an unsharded LSQ2 store is a
// full pass, so a damaged end-of-stream trailer fails it at any worker
// count.
func TestGatherVerifiesDiskTrailer(t *testing.T) {
	mem, c, ps := randomWorkload(t, 17, 60, 10)
	path := filepath.Join(t.TempDir(), "db.lsq")
	if err := seqdb.WriteFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := seqdb.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		_, err := ParallelMatchDBValuer(disk, c, w)(ps)
		var ce *seqdb.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err=%v, want a CorruptError for the damaged trailer", w, err)
		}
	}
}

// TestRemoteValuerNodeDiesMidGather: a node that answers its first probe and
// then drops every later one forces reassignment mid-batch; the gathered
// values must still be bit-identical to a plain local run.
func TestRemoteValuerNodeDiesMidGather(t *testing.T) {
	db, c, ps := randomWorkload(t, 22, 400, 12)
	want, err := MatchDBValuer(db, c)(ps)
	if err != nil {
		t.Fatal(err)
	}

	h := remoteHarness(db, 3)
	dying := &faults.NetDoer{Inner: h.Doer(0), Faults: []faults.NetFault{faults.DropOn(2, -1)}}
	m := &telemetry.Metrics{}
	pool := &shardrpc.Pool{
		Clients: []*shardrpc.Client{h.Client(0, dying), h.Client(1, h.Doer(1)), h.Client(2, h.Doer(2))},
		Retry:   shardrpc.RetryPolicy{Base: time.Microsecond},
		Metrics: m,
		Sleep:   func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	v := ProbeValuer(context.Background(), db, c, 0, pool, m)
	for probe := 0; probe < 2; probe++ {
		got, err := v(ps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ps {
			if got[i] != want[i] {
				t.Fatalf("probe %d pattern %d: %v != %v after node death", probe, i, got[i], want[i])
			}
		}
	}
	snap := m.Snapshot()
	if snap.RemoteRetries == 0 && snap.RemoteReassigned == 0 {
		t.Errorf("node died mid-gather but no retries or reassignments recorded")
	}
}

// TestRemoteValuerShardLost: with every node dead the valuer must surface
// an error wrapping ErrShardLost for the pipeline to degrade on.
func TestRemoteValuerShardLost(t *testing.T) {
	db, c, ps := randomWorkload(t, 23, 100, 8)
	h := remoteHarness(db, 2)
	h.KillAll()
	pool := instantPool(h)
	pool.Retry.MaxAttempts = 2
	_, err := ProbeValuer(nil, db, c, 0, pool, nil)(ps)
	if !errors.Is(err, shardrpc.ErrShardLost) {
		t.Fatalf("got %v, want ErrShardLost", err)
	}
}

// TestRemoteValuerScanAccounting: one remote gather is one logical pass on
// the coordinator's layout — a native shard set keeps its own shard count —
// and an empty batch costs nothing.
func TestRemoteValuerScanAccounting(t *testing.T) {
	db, c, ps := randomWorkload(t, 24, 120, 8)
	sh := writeShardSet(t, db, 3)
	m := &telemetry.Metrics{}
	v := ProbeValuer(nil, sh, c, 0, instantPool(remoteHarness(db, 2)), m)
	if out, err := v(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
	if sh.Scans() != 0 {
		t.Fatalf("empty batch consumed %d logical passes", sh.Scans())
	}
	if _, err := v(ps); err != nil {
		t.Fatal(err)
	}
	if sh.Scans() != 1 {
		t.Errorf("Sharded.Scans=%d after one probe batch, want 1", sh.Scans())
	}
	if got := m.Snapshot().ShardScans; got != int64(sh.NumShards()) {
		t.Errorf("%d shard scans recorded, want one per shard (%d)", got, sh.NumShards())
	}
}
