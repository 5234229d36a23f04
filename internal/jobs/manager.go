package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// Sentinel errors for the submission/lookup API.
var (
	// ErrClosed reports a submission to a draining manager.
	ErrClosed = errors.New("jobs: manager is draining")
	// ErrUnknownJob reports a lookup of an ID the journal has never seen.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrNotDone reports a result request for a job that has not completed.
	ErrNotDone = errors.New("jobs: job has not completed")
)

// Options configures a Manager. Zero values select the documented defaults.
type Options struct {
	// Dir is the journal directory (required): job records, result
	// documents, and per-job checkpoints live here, and a new Manager over
	// the same directory replays them.
	Dir string
	// WorkerSlots is the global worker-pool semaphore capacity — the total
	// mining parallelism across all jobs (default GOMAXPROCS). Every
	// running job holds at least one slot, so at most WorkerSlots jobs run
	// concurrently. While no job is queued, a running job also borrows the
	// free slots for each Phase 3 probe pass and each level-wise Phase 2
	// section, and returns them when that section ends, so a queued job
	// waits at most for one slot to free: one such section at worst.
	WorkerSlots int
	// MaxWorkersPerJob caps the slot grant a job keeps for its whole run
	// (default WorkerSlots/2, min 1), so a single heavy matrix cannot hoard
	// the whole pool. Borrowed slots are not counted against it.
	MaxWorkersPerJob int
	// QueueCap bounds the queued (accepted, not yet running) jobs; beyond
	// it submissions are shed with ReasonQueueFull (default 64).
	QueueCap int
	// TenantRate and TenantBurst configure the per-tenant submission token
	// bucket (jobs/second; default rate 0 = unlimited, burst default 1).
	TenantRate  float64
	TenantBurst int
	// TenantMaxActive caps one tenant's queued+running jobs (0 = unlimited).
	TenantMaxActive int
	// DefaultPhase3Timeout bounds Phase 3 for specs that do not set their
	// own (0 = unlimited). Expiry degrades the job gracefully, never fails
	// it.
	DefaultPhase3Timeout time.Duration
	// DefaultRetryBase and DefaultRetryCap shape the retrying scanner's
	// full-jitter backoff for specs that do not set their own retry_base_ms
	// / retry_cap_ms (defaults: seqdb.RetryScanner's 10ms base, 1s cap).
	// lspserve exposes them as -retry-base / -retry-cap — the same knobs a
	// coordinator reuses for shard RPC retries.
	DefaultRetryBase time.Duration
	DefaultRetryCap  time.Duration
	// CompactRetain, when > 0, compacts the journal at startup: only the
	// newest CompactRetain terminal jobs keep their records and results
	// (running and queued jobs are always kept), so a long-lived server's
	// journal stops growing unboundedly. 0 disables compaction. The pass's
	// size-before/after shows up in Counters and /metrics.
	CompactRetain int
	// OpenDB opens a job's database scanner (default: seqdb.OpenAuto,
	// wrapped in a jittered RetryScanner when spec.Retries > 0, with backoff
	// shaped by the spec's retry_base_ms/retry_cap_ms or the manager's
	// defaults). Each job gets its own scanner — Scanner implementations are
	// not safe for concurrent scans. Injectable for fault-injection tests.
	OpenDB func(Spec) (seqdb.Scanner, error)
	// OpenMatrix opens a job's compatibility source (default: read
	// spec.Matrix as a text matrix).
	OpenMatrix func(Spec) (compat.Source, error)
	// Registry, when non-nil, carries each job's live telemetry under the
	// job ID while it runs (the /metrics aggregate reads it).
	Registry *telemetry.Registry
	// AfterCheckpoint, when non-nil, observes every checkpoint write of
	// every job — the hook kill-resume tests synchronize on.
	AfterCheckpoint func(id string, phase int)
	// Now is the manager's clock (default time.Now; injectable for
	// deterministic admission tests).
	Now func() time.Time
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.WorkerSlots <= 0 {
		o.WorkerSlots = runtime.GOMAXPROCS(0)
	}
	if o.MaxWorkersPerJob <= 0 {
		o.MaxWorkersPerJob = o.WorkerSlots / 2
		if o.MaxWorkersPerJob < 1 {
			o.MaxWorkersPerJob = 1
		}
	}
	if o.MaxWorkersPerJob > o.WorkerSlots {
		o.MaxWorkersPerJob = o.WorkerSlots
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 1
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.OpenDB == nil {
		base, capDelay := o.DefaultRetryBase, o.DefaultRetryCap
		o.OpenDB = func(spec Spec) (seqdb.Scanner, error) {
			return defaultOpenDB(spec, base, capDelay)
		}
	}
	if o.OpenMatrix == nil {
		o.OpenMatrix = defaultOpenMatrix
	}
}

func defaultOpenDB(spec Spec, base, capDelay time.Duration) (seqdb.Scanner, error) {
	db, err := seqdb.OpenAuto(spec.DB)
	if err != nil {
		return nil, err
	}
	if spec.Retries > 0 {
		if spec.RetryBaseMillis > 0 {
			base = time.Duration(spec.RetryBaseMillis) * time.Millisecond
		}
		if spec.RetryCapMillis > 0 {
			capDelay = time.Duration(spec.RetryCapMillis) * time.Millisecond
		}
		return &seqdb.RetryScanner{
			Inner:      db,
			MaxRetries: spec.Retries,
			BaseDelay:  base,
			MaxDelay:   capDelay,
			Jitter:     mrand.New(mrand.NewSource(spec.Seed)),
		}, nil
	}
	return db, nil
}

func defaultOpenMatrix(spec Spec) (compat.Source, error) {
	f, err := os.Open(spec.Matrix)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return compat.ReadFrom(f)
}

// job is the in-memory state of one journaled job.
type job struct {
	rec     record
	metrics *telemetry.Metrics
	// cancel stops the running mining context; nil until the job starts.
	cancel context.CancelFunc
	// userCanceled marks a DELETE-initiated cancellation, distinguishing it
	// from a drain (which must leave the journal record resumable).
	userCanceled bool
	// workers is the slot grant while running.
	workers int
	// finalTelemetry freezes the metrics snapshot at the terminal
	// transition.
	finalTelemetry *telemetry.Snapshot
	// done closes at the terminal transition (or drain interruption).
	done chan struct{}
}

// Counters is the manager's operational counter set, rendered by /metrics.
type Counters struct {
	Accepted            int64 `json:"accepted"`
	RejectedQueueFull   int64 `json:"rejected_queue_full"`
	RejectedRateLimited int64 `json:"rejected_rate_limited"`
	RejectedTenantBusy  int64 `json:"rejected_tenant_busy"`
	Completed           int64 `json:"completed"`
	Degraded            int64 `json:"degraded"`
	Failed              int64 `json:"failed"`
	Canceled            int64 `json:"canceled"`
	Replayed            int64 `json:"replayed"`
	CompactedJobs       int64 `json:"compacted_jobs,omitempty"`
	CompactBytesBefore  int64 `json:"compact_bytes_before,omitempty"`
	CompactBytesAfter   int64 `json:"compact_bytes_after,omitempty"`
	Queued              int   `json:"queued"`
	Running             int   `json:"running"`
	WorkerSlots         int   `json:"worker_slots"`
	SlotsInUse          int   `json:"slots_in_use"`
}

// Manager is the crash-survivable job engine: a bounded FIFO queue with
// admission control in front of a worker-slot-limited pool of mining runs,
// journaling every state transition. Construct with NewManager (which
// replays any existing journal), submit with Submit, and stop with Shutdown
// (graceful: running jobs checkpoint and stay resumable) — or test the crash
// path with Crash, which drops the process-level state without journaling,
// exactly what SIGKILL leaves behind.
type Manager struct {
	opts    Options
	journal *journal
	slots   chan struct{}

	mu      sync.Mutex
	jobs    map[string]*job
	queue   []*job
	tenants map[string]*tenantState
	closed  bool // draining or crashed: no new submissions
	drain   bool // graceful drain: interrupted jobs stay journaled running
	crashed bool // simulated kill: suppress all journal writes

	stop      context.CancelFunc
	stopped   context.Context
	wake      chan struct{}
	schedDone chan struct{}
	wg        sync.WaitGroup

	nonce   string
	seq     atomic.Int64
	compact compactStats

	accepted, rejQueue, rejRate, rejTenant atomic.Int64
	completed, degraded, failed, canceled  atomic.Int64
	replayed                               atomic.Int64
	runningCount                           atomic.Int64
}

type tenantState struct {
	bucket tokenBucket
	active int
}

// NewManager opens (or creates) the journal under opts.Dir, replays it —
// terminal jobs stay queryable, queued jobs re-enter the queue, and jobs the
// previous process died holding in "running" re-enter at the front of the
// queue to be resumed from their checkpoints — and starts the scheduler.
func NewManager(opts Options) (*Manager, error) {
	opts.setDefaults()
	jn, err := openJournal(opts.Dir)
	if err != nil {
		return nil, err
	}
	var nonce [4]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("jobs: nonce: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:      opts,
		journal:   jn,
		slots:     make(chan struct{}, opts.WorkerSlots),
		jobs:      make(map[string]*job),
		tenants:   make(map[string]*tenantState),
		stop:      cancel,
		stopped:   ctx,
		wake:      make(chan struct{}, 1),
		schedDone: make(chan struct{}),
		nonce:     hex.EncodeToString(nonce[:]),
	}
	if opts.CompactRetain > 0 {
		st, cerrs := jn.compact(opts.CompactRetain)
		for _, e := range cerrs {
			m.logf("journal compact: %v", e)
		}
		if st.RemovedFiles > 0 {
			m.logf("journal compact: dropped %d terminal jobs (%d files), %d -> %d bytes",
				st.RemovedJobs, st.RemovedFiles, st.BytesBefore, st.BytesAfter)
		}
		m.compact = st
	}
	recs, errs := jn.load()
	for _, e := range errs {
		m.logf("journal replay: %v", e)
	}
	var resumed []*job
	for _, rec := range recs {
		j := &job{rec: *rec, done: make(chan struct{})}
		m.jobs[rec.ID] = j
		switch rec.State {
		case StateDone, StateFailed, StateCanceled:
			close(j.done)
		case StateQueued:
			m.tenant(rec.Spec.Tenant).active++
			m.queue = append(m.queue, j)
		case StateRunning:
			// The previous process died mid-run. Its checkpoint (if any)
			// carries the completed scans; re-queue it ahead of everything
			// so the interrupted work finishes first.
			j.rec.State = StateQueued
			j.rec.Resumed++
			m.tenant(rec.Spec.Tenant).active++
			m.replayed.Add(1)
			resumed = append(resumed, j)
			m.logf("replaying interrupted job %s (resume %d)", rec.ID, j.rec.Resumed)
		default:
			m.logf("journal replay: %s: unknown state %q, ignoring", rec.ID, rec.State)
			close(j.done)
		}
	}
	m.queue = append(resumed, m.queue...)
	go m.schedule()
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// tenant returns (creating if needed) the named tenant's state. Callers hold
// m.mu.
func (m *Manager) tenant(name string) *tenantState {
	t, ok := m.tenants[name]
	if !ok {
		t = &tenantState{}
		m.tenants[name] = t
	}
	return t
}

func (m *Manager) nextID() string {
	return fmt.Sprintf("j%s-%06d", m.nonce, m.seq.Add(1))
}

// Submit validates, admits, journals, and enqueues one job. On acceptance
// the job is durable: the returned status's ID survives any crash from here
// on. Shed submissions return an *AdmissionError carrying the Retry-After
// hint; a draining manager returns ErrClosed.
func (m *Manager) Submit(spec Spec) (Status, error) {
	if err := spec.Normalize(); err != nil {
		return Status{}, err
	}
	if m.opts.OpenDB == nil { // unreachable; defaults are set
		return Status{}, fmt.Errorf("jobs: no DB opener")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Status{}, ErrClosed
	}
	if len(m.queue) >= m.opts.QueueCap {
		m.rejQueue.Add(1)
		// Heuristic wait: one slot's worth of queue drain per backlog
		// "round". The client only needs an order of magnitude.
		wait := time.Second * time.Duration(1+len(m.queue)/m.opts.WorkerSlots)
		if wait > 30*time.Second {
			wait = 30 * time.Second
		}
		return Status{}, &AdmissionError{Reason: ReasonQueueFull, RetryAfter: wait}
	}
	t := m.tenant(spec.Tenant)
	if max := m.opts.TenantMaxActive; max > 0 && t.active >= max {
		m.rejTenant.Add(1)
		return Status{}, &AdmissionError{Reason: ReasonTenantBusy, RetryAfter: time.Second}
	}
	if rate := m.opts.TenantRate; rate > 0 {
		ok, wait := t.bucket.take(m.opts.Now(), rate, m.opts.TenantBurst)
		if !ok {
			m.rejRate.Add(1)
			return Status{}, &AdmissionError{Reason: ReasonRateLimited, RetryAfter: wait}
		}
	}
	j := &job{
		rec: record{
			ID:          m.nextID(),
			Spec:        spec,
			State:       StateQueued,
			SubmittedMs: nowMs(m.opts.Now),
		},
		done: make(chan struct{}),
	}
	if err := m.persistLocked(&j.rec); err != nil {
		// Acceptance must be durable; an unjournalable job is not accepted.
		return Status{}, err
	}
	m.jobs[j.rec.ID] = j
	m.queue = append(m.queue, j)
	t.active++
	m.accepted.Add(1)
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return m.statusLocked(j), nil
}

// persistLocked journals the record unless the manager is simulating a
// crash. Callers hold m.mu.
func (m *Manager) persistLocked(rec *record) error {
	if m.crashed {
		return nil
	}
	return m.journal.saveRecord(rec)
}

// schedule is the dispatch loop: FIFO over the queue, one blocking
// worker-slot acquisition per job (the isolation bound — a queued job waits
// for exactly one slot, never for a particular heavy job to finish), plus
// whatever extra slots are free up to the job's capped request. Slots lent
// to running jobs (lender) come back at the end of the section that
// borrowed them, and none are lent while a job is queued.
func (m *Manager) schedule() {
	defer close(m.schedDone)
	for {
		if !m.hasQueued() {
			select {
			case <-m.wake:
				continue
			case <-m.stopped.Done():
				return
			}
		}
		// Acquire the slot before popping: a job waiting for capacity stays
		// in the queue, visible to queue accounting (QueuePos, the queue
		// bound) the whole time.
		select {
		case m.slots <- struct{}{}:
		case <-m.stopped.Done():
			return
		}
		j := m.popQueued()
		if j == nil {
			m.releaseSlots(1)
			continue
		}
		granted := 1
		want := j.rec.Spec.Workers
		if want > m.opts.MaxWorkersPerJob {
			want = m.opts.MaxWorkersPerJob
		}
	extras:
		for granted < want {
			select {
			case m.slots <- struct{}{}:
				granted++
			default:
				break extras
			}
		}
		if !m.startJob(j, granted) {
			m.releaseSlots(granted)
		}
	}
}

func (m *Manager) hasQueued() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) > 0
}

func (m *Manager) popQueued() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		if j.userCanceled {
			m.finishLocked(j, StateCanceled, "canceled before start", nil, nil)
			continue
		}
		return j
	}
	return nil
}

func (m *Manager) releaseSlots(n int) {
	for i := 0; i < n; i++ {
		<-m.slots
	}
}

// lender returns the core.Config.Lend hook of a job granted slots: while no
// job is queued, it takes free slots without blocking, at most want and at
// most WorkerSlots - granted, and records them on metrics; the give-back
// returns them to the semaphore.
func (m *Manager) lender(granted int, metrics *telemetry.Metrics) func(want int) (int, func()) {
	return func(want int) (int, func()) {
		want = min(want, m.opts.WorkerSlots-granted)
		got := 0
	borrow:
		for got < want && !m.hasQueued() {
			select {
			case m.slots <- struct{}{}:
				got++
			default:
				break borrow
			}
		}
		metrics.Add(telemetry.SlotsBorrowed, int64(got))
		return got, func() { m.releaseSlots(got) }
	}
}

// startJob transitions a popped job to running and launches its goroutine.
// Returns false (slots must be released by the caller) when the job was
// canceled between pop and start or the manager is stopping.
func (m *Manager) startJob(j *job, workers int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.userCanceled {
		m.finishLocked(j, StateCanceled, "canceled before start", nil, nil)
		return false
	}
	if m.closed || m.stopped.Err() != nil {
		// Shutdown/crash won the race: leave the job queued (journaled
		// queued or running), where replay will pick it up.
		m.queue = append([]*job{j}, m.queue...)
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.workers = workers
	if m.opts.Registry != nil {
		j.metrics = m.opts.Registry.Get(j.rec.ID)
	} else {
		j.metrics = &telemetry.Metrics{}
	}
	j.rec.State = StateRunning
	j.rec.StartedMs = nowMs(m.opts.Now)
	if err := m.persistLocked(&j.rec); err != nil {
		m.logf("job %s: journal running: %v", j.rec.ID, err)
	}
	m.runningCount.Add(1)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer m.releaseSlots(workers)
		defer m.runningCount.Add(-1)
		res, doc, err := m.mine(ctx, j, workers)
		m.finishRun(j, res, doc, err)
	}()
	return true
}

// mine runs (or resumes) one job's pipeline and builds its result document.
func (m *Manager) mine(ctx context.Context, j *job, workers int) (*core.Result, []byte, error) {
	spec := j.rec.Spec
	// A journaled spec was valid when it was accepted, but a replayed one
	// may name a finalizer or engine retired since: the job then fails with
	// the retirement error instead of running or resuming.
	fin, err := core.ParseFinalizer(spec.Finalizer)
	if err != nil {
		return nil, nil, err
	}
	if err := checkEngine(spec.Engine); err != nil {
		return nil, nil, err
	}
	db, err := m.opts.OpenDB(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("open database: %w", err)
	}
	defer closeIfCloser(db)
	c, err := m.opts.OpenMatrix(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("open matrix: %w", err)
	}
	ckptPath := m.journal.checkpointPath(j.rec.ID)
	policy := &core.CheckpointPolicy{Path: ckptPath, Seed: spec.Seed}
	if hook := m.opts.AfterCheckpoint; hook != nil {
		id := j.rec.ID
		policy.AfterWrite = func(phase int) { hook(id, phase) }
	}
	phase3 := m.opts.DefaultPhase3Timeout
	if spec.Phase3TimeoutMillis > 0 {
		phase3 = time.Duration(spec.Phase3TimeoutMillis) * time.Millisecond
	}
	cfg := core.Config{
		MinMatch:              spec.MinMatch,
		Delta:                 spec.Delta,
		SampleSize:            spec.Sample,
		MaxLen:                spec.MaxLen,
		MaxGap:                spec.MaxGap,
		MaxCandidatesPerLevel: max(spec.MaxCandidates, 0), // -1, and 0 in older journals: unlimited
		MemBudget:             spec.MemBudget,
		Finalizer:             fin,
		Workers:               workers,
		Lend:                  m.lender(workers, j.metrics),
		Metrics:               j.metrics,
		Checkpoint:            policy,
		PhaseTimeouts:         core.PhaseTimeouts{Phase3: phase3},
	}

	var res *core.Result
	if m.journal.hasCheckpoint(j.rec.ID) {
		// Resume rebuilds the RNG from the snapshot's recorded seed and
		// draw count; cfg.Rng stays nil.
		res, err = core.Resume(ctx, ckptPath, db, c, cfg)
		var pe *core.PhaseError
		if err != nil && !errors.As(err, &pe) {
			// The snapshot, not the run, is the problem (corrupt file,
			// incompatible config, unreadable). Degrade to a fresh run
			// rather than wedging the job forever.
			m.logf("job %s: checkpoint unusable (%v); restarting fresh", j.rec.ID, err)
			_ = os.Remove(ckptPath)
			res, err = nil, nil
		} else if err == nil {
			m.logf("job %s: resumed from phase %d, %d scans skipped", j.rec.ID, res.ResumedFrom, res.ScansSkipped)
		}
	}
	if res == nil && err == nil {
		cfg.Rng = mrand.New(mrand.NewSource(spec.Seed))
		res, err = core.MineContext(ctx, db, c, cfg)
	}
	if err != nil {
		return res, nil, err
	}
	doc, err := buildResult(res, spec, db.Len(), c.Size())
	if err != nil {
		return res, nil, err
	}
	return res, doc, nil
}

func closeIfCloser(db seqdb.Scanner) {
	if c, ok := db.(interface{ Close() error }); ok {
		c.Close()
	}
}

// buildResult renders the deterministic result document (see Result).
func buildResult(res *core.Result, spec Spec, sequences, alphabetSize int) ([]byte, error) {
	rep, err := core.NewReport(res, spec.MinMatch, sequences, pattern.GenericAlphabet(alphabetSize))
	if err != nil {
		return nil, err
	}
	out := Result{
		Schema:       ResultSchema,
		MinMatch:     rep.MinMatch,
		Sequences:    rep.Sequences,
		SampleSize:   rep.SampleSize,
		Scans:        rep.Scans,
		Phase2Engine: rep.Phase.Phase2Engine,
		Degraded:     rep.Degraded,
		Frequent:     rep.Frequent,
		Unresolved:   rep.Unresolved,
	}
	if out.Frequent == nil {
		out.Frequent = []core.PatternReport{}
	}
	doc, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// finishRun settles a finished mining goroutine into its terminal state.
func (m *Manager) finishRun(j *job, res *core.Result, doc []byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err == nil:
		degraded := res != nil && res.Degraded
		m.finishLocked(j, StateDone, "", doc, res)
		if degraded {
			m.degraded.Add(1)
		}
	case errors.Is(err, context.Canceled) && j.userCanceled:
		m.finishLocked(j, StateCanceled, "canceled by request", nil, res)
	case errors.Is(err, context.Canceled) && (m.drain || m.crashed):
		// Interrupted by shutdown: the journal record stays "running", so
		// the next process resumes the job from its final checkpoint. Only
		// the in-memory view settles.
		j.finalTelemetry = m.snapshotLocked(j, res)
		m.tenant(j.rec.Spec.Tenant).active--
		m.unregisterLocked(j)
		close(j.done)
	default:
		m.finishLocked(j, StateFailed, err.Error(), nil, res)
	}
}

// finishLocked applies a terminal transition: journal the result document
// (before the record, so a crash between the two replays to the identical
// document), journal the record, drop the checkpoint when it has no future,
// and settle the in-memory job. Callers hold m.mu.
func (m *Manager) finishLocked(j *job, state State, errMsg string, doc []byte, res *core.Result) {
	j.rec.State = state
	j.rec.Error = errMsg
	j.rec.Degraded = res != nil && res.Degraded
	j.rec.FinishedMs = nowMs(m.opts.Now)
	if doc != nil && !m.crashed {
		if err := m.journal.saveResult(j.rec.ID, doc); err != nil {
			m.logf("job %s: journal result: %v", j.rec.ID, err)
		}
	}
	if err := m.persistLocked(&j.rec); err != nil {
		m.logf("job %s: journal %s: %v", j.rec.ID, state, err)
	}
	// A degraded job keeps its checkpoint: it holds the probe progress a
	// future resubmission could finish from. Other terminal states drop it.
	if !m.crashed && !(state == StateDone && j.rec.Degraded) {
		m.journal.removeCheckpoint(j.rec.ID)
	}
	j.finalTelemetry = m.snapshotLocked(j, res)
	m.tenant(j.rec.Spec.Tenant).active--
	m.unregisterLocked(j)
	switch state {
	case StateDone:
		m.completed.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCanceled:
		m.canceled.Add(1)
	}
	close(j.done)
}

func (m *Manager) snapshotLocked(j *job, res *core.Result) *telemetry.Snapshot {
	if j.metrics == nil {
		return nil
	}
	snap := j.metrics.Snapshot()
	if res != nil {
		snap.Retry = res.ScanStats
		snap.Degraded = res.Degraded
	}
	return &snap
}

func (m *Manager) unregisterLocked(j *job) {
	if m.opts.Registry != nil && j.metrics != nil {
		m.opts.Registry.Remove(j.rec.ID)
	}
}

// Cancel requests cancellation of a job. Queued jobs settle immediately;
// running jobs abort within one sequence block (their context is canceled)
// and settle when the mining goroutine returns. Cancel is idempotent and
// returns the job's current status.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrUnknownJob
	}
	if j.rec.State.Terminal() {
		return m.statusLocked(j), nil
	}
	j.userCanceled = true
	if j.rec.State == StateQueued {
		for i, q := range m.queue {
			if q == j {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		m.finishLocked(j, StateCanceled, "canceled by request", nil, nil)
		return m.statusLocked(j), nil
	}
	if j.cancel != nil {
		j.cancel()
	}
	return m.statusLocked(j), nil
}

// Status returns a job's current status.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrUnknownJob
	}
	return m.statusLocked(j), nil
}

// Result returns a done job's result document (ErrNotDone until then).
func (m *Manager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrUnknownJob
	}
	state := j.rec.State
	m.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("%w: state %s", ErrNotDone, state)
	}
	return m.journal.loadResult(id)
}

// Wait blocks until the job settles (terminal state or drain interruption)
// or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return m.Status(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// List returns every known job's status, oldest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.statusLocked(j))
	}
	sortStatuses(out)
	return out
}

func (m *Manager) statusLocked(j *job) Status {
	st := Status{
		ID:          j.rec.ID,
		Tenant:      j.rec.Spec.Tenant,
		State:       j.rec.State,
		Degraded:    j.rec.Degraded,
		Error:       j.rec.Error,
		Resumed:     j.rec.Resumed,
		SubmittedMs: j.rec.SubmittedMs,
		StartedMs:   j.rec.StartedMs,
		FinishedMs:  j.rec.FinishedMs,
		Spec:        j.rec.Spec,
	}
	if j.rec.State == StateQueued {
		for i, q := range m.queue {
			if q == j {
				st.QueuePos = i + 1
				break
			}
		}
	}
	if j.rec.State == StateRunning {
		st.Workers = j.workers
	}
	switch {
	case j.finalTelemetry != nil:
		st.Telemetry = j.finalTelemetry
	case j.metrics != nil:
		snap := j.metrics.Snapshot()
		st.Telemetry = &snap
	}
	return st
}

// Counters returns the operational counter snapshot.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	queued := len(m.queue)
	m.mu.Unlock()
	return Counters{
		Accepted:            m.accepted.Load(),
		RejectedQueueFull:   m.rejQueue.Load(),
		RejectedRateLimited: m.rejRate.Load(),
		RejectedTenantBusy:  m.rejTenant.Load(),
		Completed:           m.completed.Load(),
		Degraded:            m.degraded.Load(),
		Failed:              m.failed.Load(),
		Canceled:            m.canceled.Load(),
		Replayed:            m.replayed.Load(),
		CompactedJobs:       int64(m.compact.RemovedJobs),
		CompactBytesBefore:  m.compact.BytesBefore,
		CompactBytesAfter:   m.compact.BytesAfter,
		Queued:              queued,
		Running:             int(m.runningCount.Load()),
		WorkerSlots:         m.opts.WorkerSlots,
		SlotsInUse:          len(m.slots),
	}
}

// Draining reports whether the manager has stopped accepting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Shutdown drains gracefully: submissions stop (ErrClosed), running jobs'
// contexts are canceled — the pipeline flushes a final checkpoint and
// returns within one sequence block — and their journal records deliberately
// stay "running", so the next NewManager over the same directory resumes
// them. Queued jobs stay journaled queued. Shutdown returns when every
// goroutine has settled or ctx expires.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.drain = true
	cancels := m.runningCancelsLocked()
	m.mu.Unlock()
	m.stop()
	for _, c := range cancels {
		c()
	}
	return m.await(ctx)
}

// Crash simulates a SIGKILL for tests: every goroutine is stopped and — the
// crucial difference from Shutdown — nothing more is journaled, so the disk
// state is exactly what a real kill would leave: records at their last
// durable transition, checkpoints at their last completed write. The manager
// is unusable afterwards; open a new one over the same directory to replay.
func (m *Manager) Crash() {
	m.mu.Lock()
	m.closed = true
	m.crashed = true
	cancels := m.runningCancelsLocked()
	m.mu.Unlock()
	m.stop()
	for _, c := range cancels {
		c()
	}
	_ = m.await(context.Background())
}

func (m *Manager) runningCancelsLocked() []context.CancelFunc {
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		if j.rec.State == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	return cancels
}

func (m *Manager) await(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		<-m.schedDone
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown: %w", ctx.Err())
	}
}

func sortStatuses(sts []Status) {
	for i := 1; i < len(sts); i++ {
		for k := i; k > 0 && less(sts[k], sts[k-1]); k-- {
			sts[k], sts[k-1] = sts[k-1], sts[k]
		}
	}
}

func less(a, b Status) bool {
	if a.SubmittedMs != b.SubmittedMs {
		return a.SubmittedMs < b.SubmittedMs
	}
	return a.ID < b.ID
}
