package shardrpc_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/faults"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/telemetry"
)

// workload builds a seeded database, noise matrix, and probe batch.
func workload(t *testing.T, seed int64, n, l int) ([][]pattern.Symbol, *compat.Matrix, []pattern.Pattern) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const m = 8
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
	for i := 0; i < 19; i++ {
		p := make(pattern.Pattern, 1+rng.Intn(3))
		for j := range p {
			p[j] = pattern.Symbol(rng.Intn(m))
		}
		ps = append(ps, p)
	}
	return seqs, c, ps
}

func harnessOver(seqs [][]pattern.Symbol, nodes int, token string) *shardrpc.Harness {
	return shardrpc.NewHarness(nodes, token, func() (seqdb.Scanner, error) {
		return seqdb.NewMemDB(seqs), nil
	})
}

// noSleep makes pool backoff instantaneous in tests.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// layoutReq builds a probe request matching the coordinator-side layout a
// ShardScanner over seqs would use (shard counts clamp on small databases,
// so tests must not hardcode them).
func layoutReq(seqs [][]pattern.Symbol, c compat.Source, ps []pattern.Pattern, shards int) (*shardrpc.ProbeRequest, *seqdb.Sharded) {
	sh := seqdb.ShardScanner(seqdb.NewMemDB(seqs), shards)
	return shardrpc.NewProbeRequest(c, ps, sh.Len(), sh.NumShards(), sh.BlockSize()), sh
}

// TestMatrixRoundTripBitExact: the request's cell encoding must rebuild a
// source whose rows carry the same float64 bits as the original matrix.
func TestMatrixRoundTripBitExact(t *testing.T) {
	_, c, ps := workload(t, 3, 10, 8)
	req := shardrpc.NewProbeRequest(c, ps, 10, 2, 4)
	src, err := req.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if src.Size() != c.Size() {
		t.Fatalf("size %d != %d", src.Size(), c.Size())
	}
	for sym := 0; sym < c.Size(); sym++ {
		want := c.ObservedGiven(pattern.Symbol(sym))
		got := src.ObservedGiven(pattern.Symbol(sym))
		if len(got) != len(want) {
			t.Fatalf("sym %d: %d entries != %d", sym, len(got), len(want))
		}
		for i := range want {
			if got[i].Sym != want[i].Sym ||
				math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
				t.Fatalf("sym %d entry %d: %+v != %+v (not bit-exact)", sym, i, got[i], want[i])
			}
		}
	}
}

// TestServerProbeGatherMatchesLocal: folding one node's per-shard partials
// in ascending order must reproduce a plain local probe bit for bit — the
// protocol's core determinism contract.
func TestServerProbeGatherMatchesLocal(t *testing.T) {
	seqs, c, ps := workload(t, 4, 57, 12)
	base, sh := layoutReq(seqs, c, ps, 3)
	want, err := miner.MatchDBValuer(seqdb.NewMemDB(seqs), c)(ps)
	if err != nil {
		t.Fatal(err)
	}

	h := harnessOver(seqs, 1, "tok")
	client := h.Client(0, h.Doer(0))
	sums := make([]float64, len(ps))
	total := 0
	for s := 0; s < sh.NumShards(); s++ {
		req := *base
		req.Shard = s
		resp, err := client.Probe(context.Background(), &req)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		for _, b := range resp.Blocks {
			for i, v := range b.Sums {
				sums[i] += v
			}
			total += b.N
		}
	}
	if total != len(seqs) {
		t.Fatalf("gathered %d sequences, want %d", total, len(seqs))
	}
	for i := range ps {
		got := sums[i] / float64(total)
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("pattern %d: remote %v != local %v (not bit-identical)", i, got, want[i])
		}
	}
}

// TestServerAuth: a missing or wrong bearer token is rejected 401 with the
// machine-readable reason, and auth failures are not retried as node
// failures.
func TestServerAuth(t *testing.T) {
	seqs, c, ps := workload(t, 5, 8, 6)
	h := harnessOver(seqs, 1, "secret")
	req, _ := layoutReq(seqs, c, ps, 1)
	for _, token := range []string{"", "wrong"} {
		bad := &shardrpc.Client{BaseURL: "http://node-000", AuthToken: token, HTTP: h.Doer(0)}
		_, err := bad.Probe(context.Background(), req)
		var se *shardrpc.StatusError
		if !errors.As(err, &se) || se.Code != 401 || se.Reason != shardrpc.ReasonUnauthorized {
			t.Fatalf("token %q: got %v, want 401 %s", token, err, shardrpc.ReasonUnauthorized)
		}
		if shardrpc.IsNodeFailure(err) {
			t.Fatalf("token %q: auth rejection classified as node failure", token)
		}
	}
	if _, err := h.Client(0, h.Doer(0)).Probe(context.Background(), req); err != nil {
		t.Fatalf("correct token rejected: %v", err)
	}
}

// TestServerLayoutMismatch: a coordinator whose layout disagrees with the
// node's shard set must be refused before any sums are trusted.
func TestServerLayoutMismatch(t *testing.T) {
	seqs, c, ps := workload(t, 6, 12, 6)
	h := harnessOver(seqs, 1, "")
	client := h.Client(0, h.Doer(0))
	good, _ := layoutReq(seqs, c, ps, 2)
	for name, mutate := range map[string]func(*shardrpc.ProbeRequest){
		"total": func(r *shardrpc.ProbeRequest) { r.Total++ },
		"block": func(r *shardrpc.ProbeRequest) { r.Block++ },
	} {
		req := *good
		mutate(&req)
		_, err := client.Probe(context.Background(), &req)
		var se *shardrpc.StatusError
		if !errors.As(err, &se) || se.Code != 400 || se.Reason != shardrpc.ReasonLayoutMismatch {
			t.Fatalf("%s mismatch: got %v, want 400 %s", name, err, shardrpc.ReasonLayoutMismatch)
		}
	}
	// Bad schema is a protocol error, not a layout one.
	req := *good
	req.Schema = "bogus/v9"
	_, err := client.Probe(context.Background(), &req)
	var se *shardrpc.StatusError
	if !errors.As(err, &se) || se.Code != 400 || se.Reason != shardrpc.ReasonBadRequest {
		t.Fatalf("bad schema: got %v, want 400 %s", err, shardrpc.ReasonBadRequest)
	}
}

// TestPoolReassignsFromDeadNode: shard 0 prefers node 0; with node 0 dead
// the pool must reassign to node 1 and succeed, recording the reassignment.
func TestPoolReassignsFromDeadNode(t *testing.T) {
	seqs, c, ps := workload(t, 7, 20, 8)
	h := harnessOver(seqs, 2, "")
	h.Kill(0)
	pool := h.Pool(shardrpc.RetryPolicy{Base: time.Microsecond})
	pool.Sleep = noSleep
	m := &telemetry.Metrics{}
	pool.Metrics = m

	req, _ := layoutReq(seqs, c, ps, 2)
	req.Shard = 0
	if _, err := pool.Probe(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	stats := pool.Stats()
	if stats[1].Probes == 0 {
		t.Errorf("node 1 served nothing; no reassignment happened")
	}
	snap := m.Snapshot()
	if snap.RemoteRetries == 0 && snap.RemoteReassigned == 0 {
		t.Errorf("neither retries nor reassignments recorded: %+v", snap)
	}
}

// TestPoolShardLost: with every node dead the probe must give up after the
// retry budget with an error wrapping ErrShardLost.
func TestPoolShardLost(t *testing.T) {
	seqs, c, ps := workload(t, 8, 10, 6)
	h := harnessOver(seqs, 2, "")
	h.KillAll()
	pool := h.Pool(shardrpc.RetryPolicy{MaxAttempts: 3, Base: time.Microsecond})
	pool.Sleep = noSleep
	m := &telemetry.Metrics{}
	pool.Metrics = m

	req, _ := layoutReq(seqs, c, ps, 1)
	_, err := pool.Probe(context.Background(), req)
	if !errors.Is(err, shardrpc.ErrShardLost) {
		t.Fatalf("got %v, want ErrShardLost", err)
	}
	if m.Snapshot().RemoteShardsLost != 1 {
		t.Errorf("shards lost = %d, want 1", m.Snapshot().RemoteShardsLost)
	}
}

// TestPoolRecoversFromFlap: a node that drops two requests then heals must
// be re-probed and succeed within the retry budget — a flap is not a loss.
func TestPoolRecoversFromFlap(t *testing.T) {
	seqs, c, ps := workload(t, 9, 10, 6)
	h := harnessOver(seqs, 1, "")
	flaky := &faults.NetDoer{Inner: h.Doer(0), Faults: []faults.NetFault{faults.DropOn(1, 2)}}
	pool := &shardrpc.Pool{
		Clients: []*shardrpc.Client{h.Client(0, flaky)},
		Retry:   shardrpc.RetryPolicy{MaxAttempts: 4, Base: time.Microsecond},
		Sleep:   noSleep,
	}
	req, _ := layoutReq(seqs, c, ps, 1)
	if _, err := pool.Probe(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := flaky.Requests(); got != 3 {
		t.Errorf("requests = %d, want 3 (two drops then success)", got)
	}
}

// TestPoolHedgesStraggler: a permanently slow primary must lose to the
// hedge launched on the healthy second node.
func TestPoolHedgesStraggler(t *testing.T) {
	seqs, c, ps := workload(t, 10, 14, 6)
	h := harnessOver(seqs, 2, "")
	slow := &faults.NetDoer{Inner: h.Doer(0), Faults: []faults.NetFault{
		faults.DelayOn(1, -1, 200*time.Millisecond),
	}}
	m := &telemetry.Metrics{}
	pool := &shardrpc.Pool{
		Clients:    []*shardrpc.Client{h.Client(0, slow), h.Client(1, h.Doer(1))},
		Retry:      shardrpc.RetryPolicy{Base: time.Microsecond},
		HedgeAfter: time.Millisecond,
		Metrics:    m,
		Sleep:      noSleep,
	}
	req, _ := layoutReq(seqs, c, ps, 2)
	req.Shard = 0 // prefers the slow node 0
	start := time.Now()
	if _, err := pool.Probe(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("probe took %v; hedge did not preempt the straggler", elapsed)
	}
	snap := m.Snapshot()
	if snap.RemoteHedges == 0 || snap.RemoteHedgesWon == 0 {
		t.Errorf("hedges=%d won=%d, want both > 0", snap.RemoteHedges, snap.RemoteHedgesWon)
	}
}

// TestPoolPerAttemptTimeout: a per-attempt timeout converts a stalled node
// into a retriable failure served elsewhere, not a stuck gather.
func TestPoolPerAttemptTimeout(t *testing.T) {
	seqs, c, ps := workload(t, 11, 14, 6)
	h := harnessOver(seqs, 2, "")
	stalled := &faults.NetDoer{Inner: h.Doer(0), Faults: []faults.NetFault{
		faults.DelayOn(1, -1, time.Minute),
	}}
	pool := &shardrpc.Pool{
		Clients: []*shardrpc.Client{h.Client(0, stalled), h.Client(1, h.Doer(1))},
		Retry:   shardrpc.RetryPolicy{Base: time.Microsecond},
		Timeout: 5 * time.Millisecond,
		Sleep:   noSleep,
	}
	req, _ := layoutReq(seqs, c, ps, 2)
	req.Shard = 0
	if _, err := pool.Probe(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if stats := pool.Stats(); stats[1].Probes == 0 {
		t.Errorf("healthy node never probed after the timeout")
	}
}

// TestPoolCallerCancelPreserved: when the caller's context dies mid-probe
// the pool must report the caller's error, not a node failure — Phase 3
// budget expiry keeps its own degradation path.
func TestPoolCallerCancelPreserved(t *testing.T) {
	seqs, c, ps := workload(t, 12, 10, 6)
	h := harnessOver(seqs, 1, "")
	h.Kill(0)
	pool := h.Pool(shardrpc.RetryPolicy{MaxAttempts: 10, Base: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	pool.Sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	req, _ := layoutReq(seqs, c, ps, 1)
	_, err := pool.Probe(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if errors.Is(err, shardrpc.ErrShardLost) {
		t.Fatalf("caller cancellation misreported as shard loss")
	}
}
