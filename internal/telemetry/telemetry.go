// Package telemetry is the mining pipeline's lightweight metrics layer:
// atomic counters, gauges, monotonic timers and power-of-two histograms —
// stdlib only, allocation-free on the hot path — threaded through the
// three-phase algorithm so the paper's headline cost quantities (full
// database scans, per-phase wall time, probe batch shapes, §4.3's layer
// choices) are observable on every run.
//
// Every metric is one entry of a table: its JSON name, kind, unit, help text
// and the Snapshot field it fills. Snapshot, WriteText, WritePrometheus and
// Registry.Aggregate are loops over the table, so a new metric is an ID, its
// entry and its Snapshot field.
//
// Recording goes through nil-safe methods on *Metrics: Add, Set, Max and
// Observe take a metric ID, and a few recorders (Sequence, ScanDone,
// PhaseTime, ...) log a bundle of metrics in one call. A nil receiver
// records nothing, so instrumented code needs no conditionals and an
// uninstrumented run pays only a nil check. Values are atomics; the
// per-sequence path takes no locks.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/seqdb"
)

// setMax raises g to n if n exceeds its value.
func setMax(g *atomic.Int64, n int64) {
	for {
		cur := g.Load()
		if n <= cur || g.CompareAndSwap(cur, n) {
			return
		}
	}
}

// histBuckets bounds the histogram resolution: bucket i counts values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i); the last bucket absorbs
// everything larger (~2^30 and up, far beyond any per-scan quantity here).
const histBuckets = 31

// Histogram is a fixed-size power-of-two histogram over non-negative int64
// observations. All fields are atomics; Observe is lock-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	setMax(&h.max, v)
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets maps the
// upper bound of each non-empty power-of-two bucket to its count.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if s.Buckets == nil {
			s.Buckets = make(map[string]int64)
		}
		hi := int64(1) << i // bucket i holds values < 2^i
		s.Buckets[fmt.Sprintf("le_%d", hi-1)] = n
	}
	return s
}

// Metrics aggregates one mining run's telemetry. The zero value is ready to
// use; all methods are safe on a nil receiver (and record nothing).
type Metrics struct {
	phase  atomic.Int32               // current pipeline phase 1..3; 0 = outside the pipeline
	phases [4][numPhased]atomic.Int64 // scan traffic by phase; row 0 is out-of-pipeline traffic
	v      [firstHist]atomic.Int64    // every other scalar metric, by ID
	h      [numIDs - firstHist]Histogram
}

// slot returns scalar metric id's register: scan traffic goes to the
// current phase's row.
func (m *Metrics) slot(id ID) *atomic.Int64 {
	if id < numPhased {
		return &m.phases[m.phase.Load()][id]
	}
	return &m.v[id]
}

// Add adds n to counter id, or n nanoseconds to timer id.
func (m *Metrics) Add(id ID, n int64) {
	if m != nil {
		m.slot(id).Add(n)
	}
}

// Set stores n in gauge id.
func (m *Metrics) Set(id ID, n int64) {
	if m != nil {
		m.slot(id).Store(n)
	}
}

// Max raises max gauge id to n if n exceeds its value.
func (m *Metrics) Max(id ID, n int64) {
	if m != nil {
		setMax(m.slot(id), n)
	}
}

// Observe records v in histogram id.
func (m *Metrics) Observe(id ID, v int64) {
	if m != nil {
		m.h[id-firstHist].Observe(v)
	}
}

// SetPhase marks the pipeline phase subsequent scan traffic is attributed to.
func (m *Metrics) SetPhase(p int) {
	if m == nil {
		return
	}
	if p < 0 || p > 3 {
		p = 0
	}
	m.phase.Store(int32(p))
}

// Sequence records one delivered sequence of the given symbol count.
func (m *Metrics) Sequence(symbols int) {
	if m == nil {
		return
	}
	row := &m.phases[m.phase.Load()]
	row[TotalSequences].Add(1)
	row[TotalSymbols].Add(int64(symbols))
}

// ScanDone records one completed full database pass with the bytes it read
// (estimated true when the store cannot report real I/O bytes).
func (m *Metrics) ScanDone(bytes int64, estimated bool) {
	if m == nil {
		return
	}
	row := &m.phases[m.phase.Load()]
	row[TotalScans].Add(1)
	row[TotalBytes].Add(bytes)
	if estimated {
		m.v[BytesEstimated].Store(1)
	}
}

// PhaseTime accumulates wall time for phase p.
func (m *Metrics) PhaseTime(p int, d time.Duration) {
	if m == nil || p < 0 || p > 3 {
		return
	}
	m.phases[p][TotalMillis].Add(int64(d))
}

// LevelEvaluated records one lattice level (or candidate batch) of the given
// width being valued.
func (m *Metrics) LevelEvaluated(candidates int) {
	m.Add(Levels, 1)
	m.Add(Candidates, int64(candidates))
	m.Max(PeakCandidates, int64(candidates))
}

// ProbeScan records one Phase 3 probe scan counting batch patterns.
func (m *Metrics) ProbeScan(batch int) {
	m.Add(ProbeScans, 1)
	m.Add(Probed, int64(batch))
	m.Observe(ProbeBatch, int64(batch))
}

// ShardScan records one shard's completed probe scan: its wall time, the
// sequences it delivered, and the real bytes it read from its backing store
// (pass -1 when the shard cannot report real I/O — memory-backed shards —
// and the byte counter is left untouched).
func (m *Metrics) ShardScan(d time.Duration, sequences, bytes int64) {
	m.Add(ShardScans, 1)
	m.Observe(ShardScanUs, d.Microseconds())
	m.Add(ShardSequences, sequences)
	if bytes >= 0 {
		m.Add(ShardBytes, bytes)
	}
}

// RemoteProbe records one shard probe RPC round trip and whether it
// succeeded.
func (m *Metrics) RemoteProbe(d time.Duration, ok bool) {
	m.Add(RemoteProbes, 1)
	m.Observe(RemoteProbeUs, d.Microseconds())
	if !ok {
		m.Add(RemoteFailures, 1)
	}
}

// CheckpointWrite records one persisted snapshot of the given size and the
// wall time its write took.
func (m *Metrics) CheckpointWrite(bytes int64, d time.Duration) {
	m.Add(CheckpointWrites, 1)
	m.Add(CheckpointBytes, bytes)
	m.Add(CheckpointMillis, int64(d))
}

// KernelLevel records one Phase 2 lattice level scored by the level-wise
// kernel: how many pattern evaluations were served by extending a cached
// parent projection vs recomputed from scratch, the surviving windows cached
// for the next level, the bytes held by the cache when the level closed, the
// parents the memory budget denied, and whether it denied any.
func (m *Metrics) KernelLevel(extended, scratch, windows, bytes, evicted int64, fallback bool) {
	m.Add(KernelExtended, extended)
	m.Add(KernelScratch, scratch)
	m.Add(KernelWindows, windows)
	m.Max(KernelPeakBytes, bytes)
	m.Add(KernelEvicted, evicted)
	if fallback {
		m.Add(KernelFallbacks, 1)
	}
}

// GrowthNode records one expanded DFS node of the pattern-growth Phase 2
// engine: how many of its children were valued over the projection and how
// many were discarded by the optimistic bound before valuing.
func (m *Metrics) GrowthNode(valued, pruned int64) {
	m.Add(GrowthNodes, 1)
	m.Add(GrowthProjValued, valued)
	m.Add(GrowthPrunes, pruned)
}

// StreamBatch records one streaming Advance: the sequences it appended, the
// sequences the sliding window expired, the reservoir members its appends
// replaced, and whether the batch re-mined the sample.
func (m *Metrics) StreamBatch(appended, expired, replaced int, remine bool) {
	m.Add(StreamBatches, 1)
	m.Add(StreamAppended, int64(appended))
	m.Add(StreamExpired, int64(expired))
	m.Add(StreamReplaced, int64(replaced))
	if remine {
		m.Add(StreamRemines, 1)
	}
}

// ResumeHit records that the run resumed from a checkpoint recorded at the
// given phase, skipping scansSkipped full database scans.
func (m *Metrics) ResumeHit(phase, scansSkipped int) {
	m.Set(ResumedPhase, int64(phase))
	m.Set(ScansAvoided, int64(scansSkipped))
}

// PhaseSnapshot is one phase's scan traffic and timing.
type PhaseSnapshot struct {
	Phase           int     `json:"phase"`
	Sequences       int64   `json:"sequences"`
	Symbols         int64   `json:"symbols"`
	Bytes           int64   `json:"bytes"`
	Scans           int64   `json:"scans"`
	Millis          float64 `json:"millis"`
	SequencesPerSec float64 `json:"sequences_per_sec"`
}

// Snapshot is a point-in-time, JSON-serializable copy of a Metrics.
type Snapshot struct {
	Phases []PhaseSnapshot `json:"phases"`

	TotalScans      int64   `json:"total_scans"`
	TotalSequences  int64   `json:"total_sequences"`
	TotalSymbols    int64   `json:"total_symbols"`
	TotalBytes      int64   `json:"total_bytes"`
	BytesEstimated  bool    `json:"bytes_estimated,omitempty"`
	TotalMillis     float64 `json:"total_millis"`
	SequencesPerSec float64 `json:"sequences_per_sec"`

	SampleSize int64 `json:"sample_size"`

	Levels         int64 `json:"lattice_levels"`
	Candidates     int64 `json:"candidates"`
	PeakCandidates int64 `json:"peak_candidates"`
	Frequent       int64 `json:"classified_frequent"`
	Ambiguous      int64 `json:"classified_ambiguous"`
	Infrequent     int64 `json:"classified_infrequent"`

	Probed      int64             `json:"probed_patterns"`
	ProbeScans  int64             `json:"probe_scans"`
	ProbeBatch  HistogramSnapshot `json:"probe_batch"`
	ProbeLayers HistogramSnapshot `json:"probe_layers"`

	ShardScans     int64             `json:"phase3_shard_scans,omitempty"`
	ShardScanUs    HistogramSnapshot `json:"phase3_shard_scan_us,omitzero"`
	ShardSequences int64             `json:"phase3_shard_sequences,omitempty"`
	ShardBytes     int64             `json:"phase3_shard_bytes,omitempty"`

	RemoteProbes     int64             `json:"phase3_remote_probes,omitempty"`
	RemoteFailures   int64             `json:"phase3_remote_failures,omitempty"`
	RemoteProbeUs    HistogramSnapshot `json:"phase3_remote_probe_us,omitzero"`
	RemoteRetries    int64             `json:"phase3_remote_retries,omitempty"`
	RemoteReassigned int64             `json:"phase3_remote_reassigned,omitempty"`
	RemoteHedges     int64             `json:"phase3_remote_hedges,omitempty"`
	RemoteHedgesWon  int64             `json:"phase3_remote_hedges_won,omitempty"`
	RemoteShardsLost int64             `json:"phase3_remote_shards_lost,omitempty"`

	KernelExtended  int64 `json:"kernel_extended,omitempty"`
	KernelScratch   int64 `json:"kernel_scratch,omitempty"`
	KernelWindows   int64 `json:"kernel_windows,omitempty"`
	KernelPeakBytes int64 `json:"kernel_peak_bytes,omitempty"`
	KernelEvicted   int64 `json:"kernel_evicted,omitempty"`
	KernelFallbacks int64 `json:"kernel_fallbacks,omitempty"`

	GrowthNodes      int64 `json:"growth_nodes,omitempty"`
	GrowthProjBuilt  int64 `json:"growth_proj_built,omitempty"`
	GrowthProjReused int64 `json:"growth_proj_reused,omitempty"`
	GrowthProjValued int64 `json:"growth_proj_valued,omitempty"`
	GrowthPrunes     int64 `json:"growth_prunes,omitempty"`
	GrowthDenied     int64 `json:"growth_denied,omitempty"`
	GrowthPeakBytes  int64 `json:"growth_peak_bytes,omitempty"`
	// GrowthCapFallbacks counts growth runs handed back to the level-wise
	// engine because a level exceeded the candidate cap.
	GrowthCapFallbacks int64 `json:"growth_cap_fallbacks,omitempty"`

	StreamBatches       int64 `json:"stream_batches,omitempty"`
	StreamAppended      int64 `json:"stream_appended,omitempty"`
	StreamExpired       int64 `json:"stream_expired,omitempty"`
	StreamReplaced      int64 `json:"stream_replaced,omitempty"`
	StreamReprobesSaved int64 `json:"stream_reprobes_avoided,omitempty"`
	StreamRemines       int64 `json:"stream_remines,omitempty"`
	// StreamRescored counts the sample members re-mines re-valued.
	StreamRescored int64 `json:"stream_rescored_members,omitempty"`

	CheckpointWrites int64   `json:"checkpoint_writes,omitempty"`
	CheckpointBytes  int64   `json:"checkpoint_bytes,omitempty"`
	CheckpointMillis float64 `json:"checkpoint_millis,omitempty"`
	ResumedPhase     int64   `json:"resumed_phase,omitempty"`
	ScansAvoided     int64   `json:"scans_avoided,omitempty"`
	// SlotsBorrowed counts the idle worker slots an lspserve job borrowed
	// for its probe passes and Phase 2 sections, summed over sections.
	SlotsBorrowed int64 `json:"slots_borrowed,omitempty"`

	// Retry carries the scanner's pass/retry counters when the run used a
	// retrying scanner (filled by the orchestrator, not by Metrics itself).
	Retry seqdb.ScanStats `json:"retry"`

	// Degraded flags a run whose Phase 3 budget expired and which returned
	// the graceful partial result (filled by the orchestrator, not by
	// Metrics itself) — so metrics consumers can tell a complete run from a
	// degraded one without parsing the report.
	Degraded bool `json:"degraded,omitempty"`
}

// millis converts nanoseconds to milliseconds at microsecond resolution.
func millis(ns int64) float64 { return float64(time.Duration(ns).Microseconds()) / 1000 }

// Snapshot copies the current state. Safe to call concurrently with
// recording; each value is read atomically (the set is not one atomic cut,
// which is fine for progress reporting). Out-of-pipeline scan traffic
// (phase 0) is not reported.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	for p := 1; p <= 3; p++ {
		row := &m.phases[p]
		ns := row[TotalMillis].Load()
		ps := PhaseSnapshot{
			Phase:     p,
			Sequences: row[TotalSequences].Load(),
			Symbols:   row[TotalSymbols].Load(),
			Bytes:     row[TotalBytes].Load(),
			Scans:     row[TotalScans].Load(),
			Millis:    millis(ns),
		}
		if ns > 0 {
			ps.SequencesPerSec = float64(ps.Sequences) / time.Duration(ns).Seconds()
		}
		s.Phases = append(s.Phases, ps)
		s.TotalScans += ps.Scans
		s.TotalSequences += ps.Sequences
		s.TotalSymbols += ps.Symbols
		s.TotalBytes += ps.Bytes
		s.TotalMillis += ps.Millis
	}
	if s.TotalMillis > 0 {
		s.SequencesPerSec = float64(s.TotalSequences) / (s.TotalMillis / 1000)
	}
	for id := numPhased; id < numIDs; id++ {
		switch f := table[id].field(&s).(type) {
		case *int64:
			*f = m.v[id].Load()
		case *bool:
			*f = m.v[id].Load() != 0
		case *float64:
			*f = millis(m.v[id].Load())
		case *HistogramSnapshot:
			*f = m.h[id-firstHist].Snapshot()
		}
	}
	return s
}

// add sums o's counters and timers into s.
func (s *Snapshot) add(o *Snapshot) {
	for _, e := range &table {
		switch e.kind {
		case counter:
			*e.field(s).(*int64) += *e.field(o).(*int64)
		case timer:
			*e.field(s).(*float64) += *e.field(o).(*float64)
		}
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot for humans: each phase's scan traffic, then
// every metric that is not zero, in table order.
func (s Snapshot) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("telemetry: %.0f sequences/s\n", s.SequencesPerSec)
	for _, ph := range s.Phases {
		p("  phase %d: %d scans, %d sequences, %d bytes, %.1f ms\n", ph.Phase, ph.Scans, ph.Sequences, ph.Bytes, ph.Millis)
	}
	for _, e := range &table {
		switch f := e.field(&s).(type) {
		case *int64:
			if *f != 0 {
				p("  %-26s %d %s\n", e.name, *f, e.unit)
			}
		case *bool:
			if *f {
				p("  %-26s true\n", e.name)
			}
		case *float64:
			if *f != 0 {
				p("  %-26s %.1f %s\n", e.name, *f, e.unit)
			}
		case *HistogramSnapshot:
			if f.Count > 0 {
				p("  %-26s %d observed, mean %.1f, max %d %s\n", e.name, f.Count, f.Mean, f.Max, e.unit)
			}
		}
	}
	if s.Retry.Attempts > 0 {
		p("  retries: %d attempts, %d retried, %d transient, %d permanent\n",
			s.Retry.Attempts, s.Retry.Retries, s.Retry.Transient, s.Retry.Permanent)
	}
	if s.Degraded {
		p("  degraded: true (phase 3 budget expired; result is the confirmed set)\n")
	}
	return err
}

// WritePrometheus writes every counter in Prometheus text exposition format
// as <prefix>_<name>_total, with its HELP and TYPE lines.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string) error {
	for _, e := range &table {
		if e.kind != counter {
			continue
		}
		stem := e.name
		if e.prom != "" {
			stem = e.prom
		}
		name := prefix + "_" + stem + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, e.help, name, name, *e.field(&s).(*int64)); err != nil {
			return err
		}
	}
	return nil
}
