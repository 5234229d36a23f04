package jobs

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// gateScanner holds chosen passes of a store: before delivering pass k
// (1-based; pass 1 is Phase 1's, later ones are probe passes) it sends k on
// entered and waits for hold[k] to close.
type gateScanner struct {
	seqdb.Scanner
	passes  atomic.Int32
	entered chan<- int
	hold    map[int]chan struct{}
}

func (g *gateScanner) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	k := int(g.passes.Add(1))
	if gate, ok := g.hold[k]; ok {
		g.entered <- k
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return seqdb.ScanContext(ctx, g.Scanner, fn)
}

func waitPass(t *testing.T, entered <-chan int, want int) {
	t.Helper()
	select {
	case k := <-entered:
		if k != want {
			t.Fatalf("held pass %d entered, want %d", k, want)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("pass %d never entered", want)
	}
}

// TestLendingYieldsToQueuedJob checks the isolation bound under lending: a
// lone job borrows the idle slot for its probe pass, a job submitted
// meanwhile stays queued until that pass ends, then starts while the first
// job still runs, and the first job borrows nothing more while it does.
func TestLendingYieldsToQueuedJob(t *testing.T) {
	dbPath, matrixPath := testWorld(t, 77, 60, 0.2)
	aEntered, bEntered := make(chan int, 2), make(chan int, 1) // one send per held pass
	aPass2, aPass3, bPass1 := make(chan struct{}), make(chan struct{}), make(chan struct{})
	m := newTestManager(t, Options{
		WorkerSlots:      2,
		MaxWorkersPerJob: 1,
		OpenDB: func(spec Spec) (seqdb.Scanner, error) {
			db, err := seqdb.OpenAuto(spec.DB)
			if err != nil {
				return nil, err
			}
			if spec.Tenant == "a" {
				return &gateScanner{Scanner: db, entered: aEntered, hold: map[int]chan struct{}{2: aPass2, 3: aPass3}}, nil
			}
			return &gateScanner{Scanner: db, entered: bEntered, hold: map[int]chan struct{}{1: bPass1}}, nil
		},
	})
	specA := testSpec(dbPath, matrixPath)
	specA.Tenant = "a"
	specA.MemBudget = 2 // several probe passes
	specB := specA
	specB.Tenant = "b"

	a, err := m.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	waitPass(t, aEntered, 2)
	if c := m.Counters(); c.SlotsInUse != 2 {
		t.Fatalf("slots in use during A's first probe pass = %d, want 2 (one granted, one borrowed)", c.SlotsInUse)
	}
	st, err := m.Status(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	borrowed := st.Telemetry.SlotsBorrowed
	if st.Workers != 1 || borrowed < 1 {
		t.Fatalf("A: workers %d, slots_borrowed %d; want 1 granted and at least 1 borrowed", st.Workers, borrowed)
	}

	b, err := m.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bEntered:
		t.Fatal("B started while A held the borrowed slot")
	case <-time.After(100 * time.Millisecond):
	}
	if st, _ := m.Status(b.ID); st.State != StateQueued {
		t.Fatalf("B is %s while A's pass holds the borrowed slot, want queued", st.State)
	}

	// The pass ends and gives the slot back: B starts while A runs on.
	close(aPass2)
	waitPass(t, bEntered, 1)
	waitPass(t, aEntered, 3)
	for _, id := range []string{a.ID, b.ID} {
		if st, _ := m.Status(id); st.State != StateRunning {
			t.Fatalf("%s is %s, want both jobs running", id, st.State)
		}
	}
	if c := m.Counters(); c.SlotsInUse != 2 || c.Queued != 0 {
		t.Fatalf("counters %+v, want 2 slots in use (one each) and nothing queued", c)
	}

	// A's later passes run while B holds the other slot: nothing to borrow.
	close(aPass3)
	final := waitDone(t, m, a.ID)
	if final.State != StateDone {
		t.Fatalf("A: %s (%s)", final.State, final.Error)
	}
	if final.Telemetry.ProbeScans < 3 {
		t.Fatalf("A made %d probe scans; the test needs passes after the held ones", final.Telemetry.ProbeScans)
	}
	if got := final.Telemetry.SlotsBorrowed; got != borrowed {
		t.Errorf("A borrowed %d slots in all, %d before B was submitted: it borrowed while B ran", got, borrowed)
	}
	close(bPass1)
	if st := waitDone(t, m, b.ID); st.State != StateDone {
		t.Fatalf("B: %s (%s)", st.State, st.Error)
	}
}

// TestLenderYieldsToQueue pins the lend closure: it takes free slots up to
// what is asked and up to WorkerSlots minus the grant, nothing while a job
// is queued, and gives back exactly what it took.
func TestLenderYieldsToQueue(t *testing.T) {
	m := &Manager{opts: Options{WorkerSlots: 4}, slots: make(chan struct{}, 4)}
	m.slots <- struct{}{} // the job's own grant
	metrics := &telemetry.Metrics{}
	lend := m.lender(1, metrics)
	check := func(want, wantGot, inUse int) {
		t.Helper()
		got, giveBack := lend(want)
		if got != wantGot || len(m.slots) != inUse {
			t.Errorf("lend(%d) with %d queued: got %d, %d slots in use; want %d, %d",
				want, len(m.queue), got, len(m.slots), wantGot, inUse)
		}
		giveBack()
	}
	check(10, 3, 4) // capped at WorkerSlots - granted
	check(2, 2, 3)  // capped at the ask
	check(0, 0, 1)
	m.slots <- struct{}{} // another job's grant
	check(3, 2, 4)        // only what is free
	<-m.slots

	m.queue = []*job{{}}
	for _, want := range []int{1, 3, 10} {
		check(want, 0, 1)
	}
	m.queue = nil
	if len(m.slots) != 1 {
		t.Fatalf("%d slots in use after every give-back, want the grant alone", len(m.slots))
	}
	if got := metrics.Snapshot().SlotsBorrowed; got != 3+2+2 {
		t.Errorf("slots_borrowed = %d, want 7", got)
	}
}

// TestLentSlotsLeaveResultUnchanged runs one spec on a server with nothing
// to lend and on one with three idle slots, for a level-wise and a growth
// Phase 2: the second job borrows, its status and /metrics report the loans,
// and the result documents are byte-equal.
func TestLentSlotsLeaveResultUnchanged(t *testing.T) {
	seed := testutil.Seed(t)
	for _, tc := range []struct {
		minLen, maxLen int
		engine         string
	}{{10, 14, "levelwise"}, {20, 28, "growth"}} {
		dbPath, matrixPath := testWorldLen(t, seed, 60, 0.2, tc.minLen, tc.maxLen)
		spec := testSpec(dbPath, matrixPath)
		spec.MemBudget = 4
		var docs [][]byte
		var borrowed []float64
		for _, opts := range []Options{
			{WorkerSlots: 1, Registry: telemetry.NewRegistry()},
			{WorkerSlots: 4, MaxWorkersPerJob: 1, Registry: telemetry.NewRegistry()},
		} {
			m, srv := startTestServer(t, opts)
			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if final := waitDone(t, m, st.ID); final.State != StateDone {
				t.Fatalf("%s, %d slots: %s (%s)", tc.engine, opts.WorkerSlots, final.State, final.Error)
			}
			doc, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			_, status := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+st.ID, nil, nil)
			tel, _ := status["telemetry"].(map[string]any)
			n, _ := tel["slots_borrowed"].(float64) // omitted when zero
			if total := metricValue(t, srv.URL, "lspserve_slots_borrowed_total"); total != n {
				t.Errorf("%s, %d slots: /metrics reports %v slots borrowed, the job's status %v", tc.engine, opts.WorkerSlots, total, n)
			}
			docs = append(docs, doc)
			borrowed = append(borrowed, n)
		}
		if borrowed[0] != 0 || borrowed[1] == 0 {
			t.Fatalf("%s: slots_borrowed = %v, want 0 on one slot and some on four", tc.engine, borrowed)
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Errorf("%s: result with lent slots differs:\n%s\nwithout:\n%s", tc.engine, docs[1], docs[0])
		}
		if bytes.Contains(docs[1], []byte("slots_borrowed")) {
			t.Errorf("%s: the result document reports the loan", tc.engine)
		}
	}
}

// metricValue reads one unlabeled series from the server's /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s series", name)
	return 0
}
