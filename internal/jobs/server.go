package jobs

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// TenantHeader is the authenticated-tenant header the deployment's front
// door (or the bearer-token holder) sets. When present it is authoritative:
// a spec naming a different tenant is rejected, and a spec naming none
// adopts it — the spec's tenant field is never trusted over it.
const TenantHeader = "X-LSP-Tenant"

// Authentication rejection reasons (machine-readable, kebab-case like the
// admission reasons).
const (
	// ReasonUnauthorized: missing or wrong bearer token (401).
	ReasonUnauthorized = "unauthorized"
	// ReasonTenantMismatch: the spec's tenant contradicts TenantHeader (403).
	ReasonTenantMismatch = "tenant-mismatch"
)

// Server is the HTTP/JSON face of a Manager. Mount via Handler:
//
//	POST   /v1/jobs             submit a Spec        → 202 Status
//	GET    /v1/jobs             list jobs            → 200 []Status
//	GET    /v1/jobs/{id}        job status           → 200 Status
//	GET    /v1/jobs/{id}/result result document      → 200 Result
//	GET    /v1/jobs/{id}/events NDJSON status stream → 200 Status per line
//	DELETE /v1/jobs/{id}        cancel               → 200 Status
//	POST   /v1/append           append sequences     → 200 (with AppendLog)
//	GET    /healthz             liveness             → 200 / 503 draining
//	GET    /metrics             Prometheus text
//
// Shed submissions (queue full, tenant over rate or concurrency) return
// 429 with a Retry-After header; malformed requests return 400 with a JSON
// error body; unknown jobs 404. The server itself holds no state — every
// durable fact lives in the Manager's journal — so the handler can be
// rebuilt freely around a replayed manager.
type Server struct {
	Manager *Manager
	// StreamInterval paces /events snapshots (default 200ms).
	StreamInterval time.Duration
	// AuthToken, when non-empty, requires "Authorization: Bearer <token>" on
	// every /v1/* route (compared in constant time); /healthz stays open for
	// unauthenticated liveness probes and /metrics for scrapers.
	AuthToken string
	// AppendLog, when non-nil, serves POST /v1/append: clients feed the
	// server's append-only sequence log, which streaming followers tail.
	AppendLog *AppendLog
}

// NewServer wraps a manager with the default streaming cadence.
func NewServer(m *Manager) *Server { return &Server{Manager: m} }

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.auth(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.auth(s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.auth(s.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.auth(s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.auth(s.handleEvents))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.auth(s.handleCancel))
	if s.AppendLog != nil {
		mux.HandleFunc("POST /v1/append", s.auth(s.handleAppend))
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// auth gates a /v1 handler behind the bearer token when one is configured.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.AuthToken != "" {
			want := "Bearer " + s.AuthToken
			got := r.Header.Get("Authorization")
			if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
				writeJSON(w, http.StatusUnauthorized, errorBody{
					Error:  "missing or invalid bearer token",
					Reason: ReasonUnauthorized,
				})
				return
			}
		}
		h(w, r)
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// Reason carries the machine-readable rejection class: an admission
	// reason on 429, an authentication reason on 401/403.
	Reason string `json:"reason,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header for JSON-only clients.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	// Unknown fields are rejected: a typoed "min_mach" must fail loudly, not
	// silently mine at the default threshold.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	if hdr := r.Header.Get(TenantHeader); hdr != "" {
		switch spec.Tenant {
		case "", hdr:
			spec.Tenant = hdr
		default:
			writeJSON(w, http.StatusForbidden, errorBody{
				Error:  fmt.Sprintf("spec tenant %q does not match authenticated tenant %q", spec.Tenant, hdr),
				Reason: ReasonTenantMismatch,
			})
			return
		}
	}
	st, err := s.Manager.Submit(spec)
	if err != nil {
		var adm *AdmissionError
		switch {
		case errors.As(err, &adm):
			sec := retryAfterSeconds(adm.RetryAfter)
			w.Header().Set("Retry-After", strconv.Itoa(sec))
			writeJSON(w, http.StatusTooManyRequests, errorBody{
				Error:             adm.Error(),
				Reason:            adm.Reason,
				RetryAfterSeconds: sec,
			})
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Manager.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Manager.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	doc, err := s.Manager.Result(r.PathValue("id"))
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(doc)
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrNotDone):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleEvents streams the job's status as NDJSON — one Status snapshot per
// line at StreamInterval, plus a final line at the terminal transition —
// so a client can watch scan counts and checkpoint writes advance without
// polling. The stream ends when the job reaches a terminal state or the
// client disconnects. A drain settles a running job without one (its
// journal record stays running for the next process), so the stream then
// goes on at StreamInterval.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Manager.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(st Status) bool {
		if err := enc.Encode(st); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit(st) {
		return
	}
	interval := s.StreamInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	// settled closes when the job settles, so the terminal line goes out at
	// the transition rather than at the next tick. The waiter stops at the
	// latest when the handler returns; its error only says that it did.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	settled := make(chan struct{})
	go func() {
		_, _ = s.Manager.Wait(ctx, id)
		close(settled)
	}()
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return
		case <-settled:
			settled = nil // fires once; a drained job goes on ticking
		case <-tick.C:
		}
		st, err = s.Manager.Status(id)
		if err != nil || !emit(st) {
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Manager.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Manager.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleMetrics renders the manager counters plus the telemetry aggregate
// over every job the server has run in Prometheus text exposition format
// (stdlib-only; no client library in this repo).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.Manager.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP lspserve_jobs_accepted_total Jobs accepted into the queue.\n")
	p("# TYPE lspserve_jobs_accepted_total counter\n")
	p("lspserve_jobs_accepted_total %d\n", c.Accepted)
	p("# HELP lspserve_jobs_rejected_total Submissions shed by admission control.\n")
	p("# TYPE lspserve_jobs_rejected_total counter\n")
	p("lspserve_jobs_rejected_total{reason=%q} %d\n", ReasonQueueFull, c.RejectedQueueFull)
	p("lspserve_jobs_rejected_total{reason=%q} %d\n", ReasonRateLimited, c.RejectedRateLimited)
	p("lspserve_jobs_rejected_total{reason=%q} %d\n", ReasonTenantBusy, c.RejectedTenantBusy)
	p("# HELP lspserve_jobs_finished_total Jobs settled, by terminal state.\n")
	p("# TYPE lspserve_jobs_finished_total counter\n")
	p("lspserve_jobs_finished_total{state=\"done\"} %d\n", c.Completed)
	p("lspserve_jobs_finished_total{state=\"failed\"} %d\n", c.Failed)
	p("lspserve_jobs_finished_total{state=\"canceled\"} %d\n", c.Canceled)
	p("# HELP lspserve_jobs_degraded_total Done jobs that hit their Phase 3 deadline.\n")
	p("# TYPE lspserve_jobs_degraded_total counter\n")
	p("lspserve_jobs_degraded_total %d\n", c.Degraded)
	p("# HELP lspserve_jobs_replayed_total Jobs resumed from the journal after a restart.\n")
	p("# TYPE lspserve_jobs_replayed_total counter\n")
	p("lspserve_jobs_replayed_total %d\n", c.Replayed)
	p("# HELP lspserve_journal_compacted_jobs_total Terminal job records dropped by startup compaction.\n")
	p("# TYPE lspserve_journal_compacted_jobs_total counter\n")
	p("lspserve_journal_compacted_jobs_total %d\n", c.CompactedJobs)
	p("# HELP lspserve_journal_compact_bytes Journal on-disk size around startup compaction.\n")
	p("# TYPE lspserve_journal_compact_bytes gauge\n")
	p("lspserve_journal_compact_bytes{when=\"before\"} %d\n", c.CompactBytesBefore)
	p("lspserve_journal_compact_bytes{when=\"after\"} %d\n", c.CompactBytesAfter)
	p("# HELP lspserve_jobs_queued Jobs waiting for a worker slot.\n")
	p("# TYPE lspserve_jobs_queued gauge\n")
	p("lspserve_jobs_queued %d\n", c.Queued)
	p("# HELP lspserve_jobs_running Jobs currently mining.\n")
	p("# TYPE lspserve_jobs_running gauge\n")
	p("lspserve_jobs_running %d\n", c.Running)
	p("# HELP lspserve_worker_slots Global worker-slot semaphore capacity.\n")
	p("# TYPE lspserve_worker_slots gauge\n")
	p("lspserve_worker_slots %d\n", c.WorkerSlots)
	p("# HELP lspserve_worker_slots_in_use Worker slots currently held by jobs, borrowed ones included.\n")
	p("# TYPE lspserve_worker_slots_in_use gauge\n")
	p("lspserve_worker_slots_in_use %d\n", c.SlotsInUse)
	if al := s.AppendLog; al != nil {
		p("# HELP lspserve_append_sequences_total Sequences accepted by /v1/append.\n")
		p("# TYPE lspserve_append_sequences_total counter\n")
		p("lspserve_append_sequences_total %d\n", al.appended.Load())
		p("# HELP lspserve_append_log_live Live (unexpired) sequences in the append log.\n")
		p("# TYPE lspserve_append_log_live gauge\n")
		p("lspserve_append_log_live %d\n", al.DB.Len())
	}
	if reg := s.Manager.opts.Registry; reg != nil {
		_ = reg.Aggregate().WritePrometheus(w, "lspserve") // a failed write means the scraper left
	}
}
