package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
)

func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// killable makes a real HTTP node SIGKILL-able: once dead it aborts every
// connection at the transport level, like a killed process behind a closed
// socket. killAfterServed > 0 arms an automatic kill after that many
// successfully served requests — a node dying mid-gather.
type killable struct {
	inner           http.Handler
	served          atomic.Int64
	dead            atomic.Bool
	killAfterServed int64
}

func (k *killable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	k.inner.ServeHTTP(w, r)
	if n := k.served.Add(1); k.killAfterServed > 0 && n >= k.killAfterServed {
		k.dead.Store(true)
	}
}

// TestRemotePhase3NodeKillChaos: a three-node cluster of real HTTP servers
// loses one node after its first served probe; the distributed run's report
// must be byte-identical to a plain local run's.
func TestRemotePhase3NodeKillChaos(t *testing.T) {
	db, c := noisyProteinDB(t, 15, 80, 0.15)
	baseCfg := Config{
		MinMatch: 0.1, SampleSize: 20, MaxLen: 4, MaxGap: 0,
		MemBudget: 10,
	}

	local := baseCfg
	local.Rng = rand.New(rand.NewSource(16))
	want, err := Mine(db, c, local)
	if err != nil {
		t.Fatal(err)
	}

	const token = "chaos-token"
	var nodes []*killable
	var clients []*shardrpc.Client
	for i := 0; i < 3; i++ {
		k := &killable{inner: (&shardrpc.Server{
			Open:      func() (seqdb.Scanner, error) { return db, nil },
			AuthToken: token,
		}).Handler()}
		if i == 0 {
			k.killAfterServed = 1 // node 0 dies mid-gather
		}
		srv := httptest.NewServer(k)
		defer srv.Close()
		nodes = append(nodes, k)
		clients = append(clients, &shardrpc.Client{BaseURL: srv.URL, AuthToken: token})
	}
	remote := baseCfg
	remote.Remote = &shardrpc.Pool{
		Clients: clients,
		Retry:   shardrpc.RetryPolicy{Base: time.Microsecond},
		Sleep:   instantSleep,
	}
	remote.Rng = rand.New(rand.NewSource(16))
	got, err := Mine(db, c, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !nodes[0].dead.Load() {
		t.Fatalf("node 0 never died; chaos schedule did not engage (served=%d)", nodes[0].served.Load())
	}

	wantDoc := timelessReport(t, want, local.MinMatch, db.Len(), c.Size())
	gotDoc := timelessReport(t, got, local.MinMatch, db.Len(), c.Size())
	if !bytes.Equal(wantDoc, gotDoc) {
		t.Errorf("distributed run's report differs from the local run's:\nlocal:  %s\nremote: %s",
			wantDoc, gotDoc)
	}
}

// timelessReport renders the run's JSON report with the wall-clock timing
// fields stripped: everything left — pattern sets, per-pattern match values
// bit for bit, scan counts — is the deterministic mined result.
func timelessReport(t *testing.T, res *Result, minMatch float64, n, m int) []byte {
	t.Helper()
	rep, err := NewReport(res, minMatch, n, pattern.GenericAlphabet(m))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if phases, ok := doc["phases"].(map[string]any); ok {
		for k := range phases {
			if strings.HasSuffix(k, "_ms") {
				delete(phases, k)
			}
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRemotePhase3ShardLostDegradesAndResumes: a cluster that dies for good
// mid-Phase 3 degrades the run gracefully (Unresolved + Chernoff intervals,
// DegradeReason shard-lost, checkpoint on disk) instead of failing it, and
// once the cluster is back Resume finishes to the uninterrupted result.
func TestRemotePhase3ShardLostDegradesAndResumes(t *testing.T) {
	db, c := noisyProteinDB(t, 15, 80, 0.15)
	baseCfg := Config{
		MinMatch: 0.1, SampleSize: 20, MaxLen: 4, MaxGap: 0,
		MemBudget: 5, // several probe scans, so the cluster dies mid-phase
	}

	ref := baseCfg
	ref.Rng = rand.New(rand.NewSource(16))
	want, err := Mine(db, c, ref)
	if err != nil {
		t.Fatal(err)
	}

	h := shardrpc.NewHarness(2, "", func() (seqdb.Scanner, error) { return db, nil })
	pool := h.Pool(shardrpc.RetryPolicy{MaxAttempts: 2, Base: time.Microsecond})
	pool.Sleep = instantSleep

	ckpt := filepath.Join(t.TempDir(), "run.lckp")
	cfg := baseCfg
	cfg.Remote = pool
	cfg.Rng = rand.New(rand.NewSource(16))
	cfg.Checkpoint = &CheckpointPolicy{Path: ckpt, Seed: 16, AfterWrite: func(phase int) {
		if phase >= 3 {
			h.KillAll() // the whole cluster goes away after the first probe scan
		}
	}}
	res, err := Mine(db, c, cfg)
	if err != nil {
		t.Fatalf("shard loss failed the run instead of degrading it: %v", err)
	}
	if !res.Degraded {
		t.Fatal("run not degraded after permanent shard loss")
	}
	if res.DegradeReason != DegradeShardLost {
		t.Fatalf("DegradeReason = %q, want %q", res.DegradeReason, DegradeShardLost)
	}
	if len(res.Unresolved) == 0 {
		t.Fatal("degraded run reports no unresolved patterns")
	}
	for _, u := range res.Unresolved {
		if u.Epsilon <= 0 {
			t.Fatalf("unresolved %v lacks a Chernoff interval (ε=%v)", u.Pattern, u.Epsilon)
		}
	}

	// The cluster comes back; the checkpointed run resumes to the exact
	// uninterrupted result, skipping the scans it already has.
	h.ReviveAll()
	pool2 := h.Pool(shardrpc.RetryPolicy{MaxAttempts: 2, Base: time.Microsecond})
	pool2.Sleep = instantSleep
	cfg2 := baseCfg
	cfg2.Remote = pool2
	cfg2.Checkpoint = &CheckpointPolicy{Path: ckpt, Seed: 16}
	res2, err := Resume(context.Background(), ckpt, db, c, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degraded {
		t.Fatal("resumed run still degraded with a healthy cluster")
	}
	setsEqual(t, res2.Frequent, want.Frequent, "resumed remote vs uninterrupted local")
	if res2.ScansSkipped == 0 {
		t.Errorf("resume skipped no scans; checkpoint was not used")
	}
}
