package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/testutil"
)

func startTestServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m, srv
}

func TestServerSubmitPollResult(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	reg := telemetry.NewRegistry()
	m, srv := startTestServer(t, Options{Registry: reg})

	body, err := json.Marshal(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" {
		t.Fatal("no job ID in submit response")
	}
	// The journaled spec comes back normalized.
	if st.Spec.Delta != 1e-2 || st.Spec.Finalizer != "collapse" || st.Spec.Engine != "candidates" {
		t.Errorf("echoed spec not normalized: %+v", st.Spec)
	}

	if _, err := m.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var final Status
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Schema != ResultSchema || len(res.Frequent) == 0 {
		t.Errorf("result = schema %q, %d frequent", res.Schema, len(res.Frequent))
	}

	// List includes the job.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}

	// Metrics include the counter lines.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		"lspserve_jobs_accepted_total 1",
		`lspserve_jobs_finished_total{state="done"} 1`,
		"lspserve_worker_slots ",
		"lspserve_scans_total ",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// TestServerRejectsUnknownPhase2Engine pins the machine-readable 400 for
// the retired phase2_engine field (the engine is picked from the sample
// now): a submit that sets it fails with a JSON error body naming it, and
// no job is enqueued.
func TestServerRejectsUnknownPhase2Engine(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 10, 0.2)
	m, srv := startTestServer(t, Options{})

	raw, err := json.Marshal(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	fields["phase2_engine"] = "growth"
	body, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body does not parse: %v", err)
	}
	if !strings.Contains(eb.Error, "phase2_engine") {
		t.Errorf("error %q does not name phase2_engine", eb.Error)
	}
	if c := m.Counters(); c.Accepted != 0 {
		t.Errorf("rejected spec counted as accepted: %+v", c)
	}
}

func TestServerEventsStream(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	_, srv := startTestServer(t, Options{
		OpenDB: throttledOpener(200 * time.Microsecond),
	})
	body, err := json.Marshal(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var last Status
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %d does not parse: %v", lines, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 1 {
		t.Fatal("stream delivered no snapshots")
	}
	if !last.State.Terminal() {
		t.Errorf("stream ended at state %s, want a terminal snapshot", last.State)
	}
	if last.State != StateDone {
		t.Errorf("final state = %s (%s)", last.State, last.Error)
	}
}

func TestServerHealthzDraining(t *testing.T) {
	m, srv := startTestServer(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"db":"x","matrix":"y","min_match":0.5,"max_len":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

func TestServerCancelEndpoint(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	_, srv := startTestServer(t, Options{
		OpenDB: throttledOpener(time.Millisecond),
	})
	body, err := json.Marshal(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur Status
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State.Terminal() {
			if cur.State != StateCanceled {
				t.Fatalf("state = %s, want canceled", cur.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never settled after cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
