// Package jobs is the serving layer's job subsystem: a bounded, crash-durable
// queue of mining jobs in front of internal/core, with per-tenant admission
// control, a global worker-slot semaphore for cross-job isolation, per-job
// telemetry, and journal-backed restart — a killed server replays its journal
// and resumes in-flight jobs to bit-identical results via core.Resume.
//
// The package is transport-agnostic: Manager is the engine, Server (server.go)
// the HTTP/JSON face cmd/lspserve mounts. Robustness properties are load-
// bearing, not incidental:
//
//   - every accepted job is journaled crash-atomically before Submit returns,
//     so acceptance is a durable promise;
//   - running jobs checkpoint under core.CheckpointPolicy, so a SIGKILL loses
//     at most one probe scan of work;
//   - admission sheds load (queue bound, per-tenant token bucket and
//     max-active cap) with a Retry-After hint instead of queuing unboundedly;
//   - a job whose Phase 3 deadline expires returns the graceful degraded
//     result (confirmed set + Chernoff intervals) instead of an error.
package jobs

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// State is a job's lifecycle position. Transitions are monotone:
// queued → running → (done | failed | canceled); a restarted server moves
// journaled running jobs back through running via resume.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is a mining job request — the serving analogue of lspmine's flag set.
// Zero values select the same defaults the CLI uses; Normalize fills them in
// so the journaled spec is self-describing and hashes identically across
// restarts.
type Spec struct {
	// Tenant attributes the job for admission control ("" = the anonymous
	// tenant, which is rate-limited as one bucket like any other).
	Tenant string `json:"tenant,omitempty"`
	// DB is the sequence database path (.lsq/.lsq.gz, required).
	DB string `json:"db"`
	// Matrix is the compatibility matrix path (required).
	Matrix string `json:"matrix"`
	// MinMatch is the significance threshold (required, in (0,1]).
	MinMatch float64 `json:"min_match"`
	// MaxLen bounds pattern length (required, >= 1).
	MaxLen int `json:"max_len"`
	// MaxGap bounds runs of eternal symbols (default 0).
	MaxGap int `json:"max_gap,omitempty"`
	// Delta is the Chernoff failure probability (default 1e-4).
	Delta float64 `json:"delta,omitempty"`
	// Sample is the Phase 1 sample size (default 1000).
	Sample int `json:"sample,omitempty"`
	// MaxCandidates caps Phase 2's per-level candidate count (default 50000;
	// -1 = unlimited).
	MaxCandidates int `json:"max_candidates,omitempty"`
	// MemBudget is Phase 3's pattern counters per scan (default 10000).
	MemBudget int `json:"mem_budget,omitempty"`
	// Finalizer is the Phase 3 strategy: collapse (default), levelwise,
	// implicit, or none.
	Finalizer string `json:"finalizer,omitempty"`
	// Engine is the pipeline: candidates (default; its Phase 2 engine is
	// picked from the sample, see core.PickPhase2Engine) or sweep.
	Engine string `json:"engine,omitempty"`
	// Workers is the number of worker slots the job wants from the global
	// semaphore (default 1). The grant may be smaller under load — never
	// zero — and never changes the mined result.
	Workers int `json:"workers,omitempty"`
	// Seed drives Phase 1's sampling (default 1). Together with the spec it
	// fully determines the result, which is what makes kill-resume
	// verification ("bit-identical to an uninterrupted run") meaningful.
	Seed int64 `json:"seed,omitempty"`
	// Retries enables a jittered retrying scanner over the database (0 =
	// none): transient scan failures are re-run with full-jitter capped
	// backoff instead of failing the job.
	Retries int `json:"retries,omitempty"`
	// RetryBaseMillis overrides the retry backoff's base delay in
	// milliseconds (0 = the manager's default, ultimately 10ms). Only
	// meaningful with Retries > 0.
	RetryBaseMillis int64 `json:"retry_base_ms,omitempty"`
	// RetryCapMillis overrides the retry backoff's delay cap in milliseconds
	// (0 = the manager's default, ultimately 1000ms).
	RetryCapMillis int64 `json:"retry_cap_ms,omitempty"`
	// Phase3TimeoutMillis bounds Phase 3's wall time (0 = the manager's
	// default). On expiry the job completes degraded — confirmed set plus
	// Chernoff intervals for the unresolved patterns — rather than failing.
	Phase3TimeoutMillis int64 `json:"phase3_timeout_ms,omitempty"`
}

// Normalize fills defaulted fields in place (mirroring lspmine's defaults)
// and validates the result. The manager journals the normalized spec, so a
// record read back after a restart reproduces the exact same core.Config.
func (s *Spec) Normalize() error {
	if s.DB == "" {
		return fmt.Errorf("jobs: spec.db is required")
	}
	if s.Matrix == "" {
		return fmt.Errorf("jobs: spec.matrix is required")
	}
	if s.MinMatch <= 0 || s.MinMatch > 1 {
		return fmt.Errorf("jobs: spec.min_match %v outside (0,1]", s.MinMatch)
	}
	if s.MaxLen < 1 {
		return fmt.Errorf("jobs: spec.max_len %d < 1", s.MaxLen)
	}
	if s.MaxGap < 0 {
		return fmt.Errorf("jobs: negative spec.max_gap")
	}
	if s.Delta == 0 {
		s.Delta = 1e-4
	}
	if s.Delta <= 0 || s.Delta >= 1 {
		return fmt.Errorf("jobs: spec.delta %v outside (0,1)", s.Delta)
	}
	if s.Sample == 0 {
		s.Sample = 1000
	}
	if s.Sample < 1 {
		return fmt.Errorf("jobs: spec.sample %d < 1", s.Sample)
	}
	switch {
	case s.MaxCandidates == 0:
		s.MaxCandidates = 50000
	case s.MaxCandidates < 0:
		s.MaxCandidates = -1 // explicit "unlimited", kept so the echo resubmits as it runs
	}
	if s.MemBudget == 0 {
		s.MemBudget = 10000
	}
	if s.MemBudget < 1 {
		return fmt.Errorf("jobs: spec.mem_budget %d < 1", s.MemBudget)
	}
	if s.Finalizer == "" {
		s.Finalizer = "collapse"
	}
	if _, err := parseFinalizer(s.Finalizer); err != nil {
		return err
	}
	switch s.Engine {
	case "":
		s.Engine = "candidates"
	case "candidates", "sweep":
	default:
		return fmt.Errorf("jobs: unknown engine %q (want candidates or sweep)", s.Engine)
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Workers < 1 {
		return fmt.Errorf("jobs: spec.workers %d < 1", s.Workers)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Retries < 0 {
		return fmt.Errorf("jobs: negative spec.retries")
	}
	if s.RetryBaseMillis < 0 {
		return fmt.Errorf("jobs: negative spec.retry_base_ms")
	}
	if s.RetryCapMillis < 0 {
		return fmt.Errorf("jobs: negative spec.retry_cap_ms")
	}
	if s.RetryBaseMillis > 0 && s.RetryCapMillis > 0 && s.RetryCapMillis < s.RetryBaseMillis {
		return fmt.Errorf("jobs: spec.retry_cap_ms %d below spec.retry_base_ms %d", s.RetryCapMillis, s.RetryBaseMillis)
	}
	if s.Phase3TimeoutMillis < 0 {
		return fmt.Errorf("jobs: negative spec.phase3_timeout_ms")
	}
	return nil
}

func parseFinalizer(name string) (core.Finalizer, error) {
	switch name {
	case "collapse":
		return core.BorderCollapsing, nil
	case "levelwise":
		return core.LevelWise, nil
	case "implicit":
		return core.BorderCollapsingImplicit, nil
	case "none":
		return core.None, nil
	default:
		return 0, fmt.Errorf("jobs: unknown finalizer %q (want collapse, levelwise, implicit or none)", name)
	}
}

// record is the journaled form of one job: its normalized spec plus the
// durable lifecycle facts. Everything needed to resume, re-run, or report
// the job after a crash lives here or in the files the record points at
// (checkpoint, result).
type record struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// State is the last durably recorded state. A crash can leave it one
	// transition behind reality (e.g. "running" for a job that finished a
	// microsecond before the kill); replay re-runs the job from its
	// checkpoint, which converges to the identical result.
	State State `json:"state"`
	// Degraded marks a done job that hit its Phase 3 deadline.
	Degraded bool `json:"degraded,omitempty"`
	// Error holds the failure or cancellation detail for terminal states.
	Error string `json:"error,omitempty"`
	// Resumed counts journal replays that re-ran this job (0 = never
	// interrupted) — an honest marker that the result came through the
	// crash path.
	Resumed int `json:"resumed,omitempty"`
	// Timestamps in Unix milliseconds (0 = not yet).
	SubmittedMs int64 `json:"submitted_ms"`
	StartedMs   int64 `json:"started_ms,omitempty"`
	FinishedMs  int64 `json:"finished_ms,omitempty"`
}

// Status is the externally visible view of a job: the journaled facts plus
// live scheduling and telemetry detail.
type Status struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	State    State  `json:"state"`
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// QueuePos is the 1-based position among queued jobs (0 otherwise).
	QueuePos int `json:"queue_pos,omitempty"`
	// Workers is the worker-slot grant while running (0 otherwise).
	Workers int `json:"workers,omitempty"`
	// Resumed counts crash-replays this job went through.
	Resumed     int   `json:"resumed,omitempty"`
	SubmittedMs int64 `json:"submitted_ms"`
	StartedMs   int64 `json:"started_ms,omitempty"`
	FinishedMs  int64 `json:"finished_ms,omitempty"`
	// Spec echoes the normalized spec the job runs with.
	Spec Spec `json:"spec"`
	// Telemetry is the job's live (running) or final (terminal) metrics
	// snapshot; nil before the job first starts.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Result is the deterministic result document of a completed job. It
// deliberately excludes wall-clock fields (timings, telemetry) and
// scheduling facts (resume counts): given a spec and database, the document
// is a pure function of the mining algorithm, so "restart recovered the job"
// is checkable as byte equality against an uninterrupted run.
type Result struct {
	Schema     string  `json:"schema"`
	MinMatch   float64 `json:"min_match"`
	Sequences  int     `json:"sequences"`
	SampleSize int     `json:"sample_size"`
	Scans      int     `json:"scans"`
	// Phase2Engine names the engine that ran Phase 2: levelwise or growth
	// (picked from the sample), or sweep.
	Phase2Engine string `json:"phase2_engine"`
	Degraded     bool   `json:"degraded,omitempty"`
	// Frequent lists every frequent pattern (border members flagged),
	// sorted as core.Report sorts them.
	Frequent []core.PatternReport `json:"frequent"`
	// Unresolved lists the patterns a degraded run left ambiguous.
	Unresolved []core.UnresolvedReport `json:"unresolved,omitempty"`
}

// ResultSchema identifies the result document format.
const ResultSchema = "lspserve-result/v1"

// nowMs is the timestamp convention used throughout the journal.
func nowMs(now func() time.Time) int64 { return now().UnixMilli() }
