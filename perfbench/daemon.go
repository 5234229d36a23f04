package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// daemon is an in-process lspserve: the jobs manager behind its HTTP
// handler on a loopback listener, wired the way cmd/lspserve wires it, with
// the client the benchmark drives it through.
type daemon struct {
	mgr    *jobs.Manager
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon starts a daemon journaling under dir; appendLog, when non-nil,
// enables POST /v1/append.
func startDaemon(dir string, appendLog *jobs.AppendLog) (*daemon, error) {
	mgr, err := jobs.NewManager(jobs.Options{
		Dir:      filepath.Join(dir, "data"),
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Shutdown(context.Background())
		return nil, err
	}
	// Status events every 10 ms (lspserve -stream-interval 10ms) rather than
	// the default 200 ms: the op ends at the first event after the job
	// finishes, and a 200 ms tick would quantize every op time to 200 ms
	// steps.
	server := &jobs.Server{Manager: mgr, AppendLog: appendLog, StreamInterval: 10 * time.Millisecond}
	d := &daemon{
		mgr:    mgr,
		srv:    &http.Server{Handler: server.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the manager, closes the server and waits for it to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errMgr := d.mgr.Shutdown(ctx)
	errSrv := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errSrv = errors.Join(errSrv, err)
	}
	d.client.CloseIdleConnections()
	return errors.Join(errMgr, errSrv)
}

// jobRun is one job's client-side record.
type jobRun struct {
	status jobs.Status // terminal status, with the job's telemetry
	doc    []byte      // result document
	// Client-side instants: submit sent and answered, terminal event seen,
	// result document received.
	sent, accepted, seen, fetched time.Time
	// waitSpan is the span of the wait for the terminal event.
	waitSpan int
}

// runJob submits a pre-encoded spec, follows the job's event stream to its
// terminal state and fetches the result document — one closed-loop
// operation. Spans go under parent.
func (d *daemon) runJob(tr *tracer, parent, op int, body []byte) (*jobRun, error) {
	r := &jobRun{sent: time.Now()}
	id := tr.begin("jobs.submit", parent, op)
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(id)
		return nil, fmt.Errorf("submit: %w", err)
	}
	var st jobs.Status
	err = decodeResponse(resp, http.StatusAccepted, &st)
	r.accepted = time.Now()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	id = tr.begin("jobs.wait", parent, op)
	r.waitSpan = id
	resp, err = d.client.Get(d.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		tr.end(id)
		return nil, fmt.Errorf("events: %w", err)
	}
	st, err = lastEvent(resp)
	r.seen = time.Now()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	r.status = st

	id = tr.begin("jobs.result", parent, op)
	resp, err = d.client.Get(d.base + "/v1/jobs/" + st.ID + "/result")
	if err == nil {
		r.doc, err = readBody(resp, http.StatusOK)
	}
	r.fetched = time.Now()
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("result: %w", err)
	}
	return r, nil
}

// lastEvent reads an NDJSON status stream to its terminal snapshot.
func lastEvent(resp *http.Response) (jobs.Status, error) {
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		st = jobs.Status{}
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("stream ended before a terminal state")
}

// post sends a pre-encoded body and discards a 200 response.
func (d *daemon) post(path string, body []byte) error {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, err = readBody(resp, http.StatusOK)
	return err
}

func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return data, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func decodeResponse(resp *http.Response, want int, v any) error {
	data, err := readBody(resp, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
