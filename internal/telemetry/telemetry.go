// Package telemetry is the mining pipeline's lightweight metrics layer:
// atomic counters, monotonic timers and power-of-two histograms — stdlib
// only, allocation-free on the hot path — threaded through the three-phase
// algorithm so the paper's headline cost quantities (full database scans,
// per-phase wall time, probe batch shapes, §4.3's layer choices) are
// observable on every run.
//
// All recording goes through nil-safe methods on *Metrics: a nil receiver
// records nothing, so instrumented code needs no conditionals and an
// uninstrumented run pays only a nil check. Counters are atomics; the
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

// Counter is an atomic monotone counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last/max-value register.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax raises the gauge to n if n exceeds the current value.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Timer accumulates elapsed wall time. Durations come from time.Since, which
// uses the monotonic clock.
type Timer struct{ ns atomic.Int64 }

// Add accumulates one measured duration.
func (t *Timer) Add(d time.Duration) { t.ns.Add(int64(d)) }

// Elapsed returns the total accumulated duration.
func (t *Timer) Elapsed() time.Duration { return time.Duration(t.ns.Load()) }

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
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
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

// Label mirrors chernoff.Label's ordering for classification accounting
// without importing the classifier.
const (
	LabelInfrequent = 0
	LabelAmbiguous  = 1
	LabelFrequent   = 2
)

// phaseScan counts the scan traffic one pipeline phase generated.
type phaseScan struct {
	sequences Counter // sequences delivered (including retried attempts)
	symbols   Counter // symbols delivered
	bytes     Counter // bytes read from the backing store (estimated for in-memory stores)
	scans     Counter // completed full passes
	time      Timer
}

// Metrics aggregates one mining run's telemetry. The zero value is ready to
// use; all methods are safe on a nil receiver (and record nothing).
type Metrics struct {
	phase atomic.Int32 // current pipeline phase 1..3; 0 = outside the pipeline

	phases         [4]phaseScan // indexed by phase; 0 collects out-of-pipeline traffic
	bytesEstimated atomic.Bool  // true when bytes were estimated from symbol counts

	sampleSize Gauge // sequences actually drawn in Phase 1

	// Phase 2 lattice accounting.
	levels         Counter // lattice levels evaluated
	candidates     Counter // candidates valued
	peakCandidates Gauge   // widest single level
	labels         [3]Counter

	// Phase 3 probe accounting.
	probed      Counter   // patterns counted against the database
	probeBatch  Histogram // patterns probed per scan
	probeLayers Histogram // lattice level (K) of each probed pattern — §4.3's layer choices

	// Phase 3 scatter-gather accounting (sharded probe path).
	shardScans Counter   // per-shard scans completed
	shardUs    Histogram // per-shard scan wall time, microseconds
	shardSeqs  Counter   // sequences delivered by shard scans
	shardBytes Counter   // real bytes read by shard scans (only shards that report I/O)

	// Phase 3 remote-probe accounting (distributed scatter path).
	remoteProbes     Counter   // shard probe RPCs issued (including hedges and retries)
	remoteFailures   Counter   // probe RPCs that failed
	remoteUs         Histogram // per-probe round-trip wall time, microseconds
	remoteRetries    Counter   // probe attempts retried after a node failure
	remoteReassigned Counter   // probes routed away from a down preferred node
	remoteHedges     Counter   // hedge probes launched against a second node
	remoteHedgesWon  Counter   // hedge probes that answered before the primary
	remoteShardsLost Counter   // shards given up on after exhausting the pool

	// Checkpoint/resume accounting.
	ckptWrites   Counter // snapshots persisted
	ckptBytes    Counter // bytes written across all snapshots
	ckptTime     Timer   // wall time spent writing snapshots
	resumedPhase Gauge   // phase the run resumed from (0 = fresh run)
	scansAvoided Gauge   // full scans skipped by resuming

	// Phase 2 incremental-kernel accounting (prefix-extension cache).
	kernelExtended  Counter // pattern evaluations served by prefix extension
	kernelScratch   Counter // pattern evaluations recomputed from scratch
	kernelWindows   Counter // surviving windows cached across all levels
	kernelPeakBytes Gauge   // high-water mark of prefix-cache memory
	kernelEvicted   Counter // cache entries dropped by the memory budget
	kernelFallbacks Counter // levels where the budget forced fallback scoring

	// Streaming accounting (internal/stream batch advances).
	streamBatches       Counter // batches advanced through the streaming pipeline
	streamAppended      Counter // sequences appended across all batches
	streamExpired       Counter // sequences expired out of the sliding window
	streamReprobesSaved Counter // probe valuations served from cached exact sums (no scan)
	streamBorderShifts  Counter // batches whose raw-label border shifted
	streamRemines       Counter // scoped Phase 2 re-mines (border shift, sample churn, rebuild)

	// Phase 2 growth-engine accounting (depth-first prefix projection).
	growthNodes        Counter // DFS nodes expanded (patterns whose children were enumerated)
	growthProjBuilt    Counter // projections built from scratch
	growthProjReused   Counter // projections extended from a parent projection
	growthProjValued   Counter // candidate valuations served by a projection walk
	growthPrunes       Counter // candidates discarded by the optimistic bound
	growthDenied       Counter // projections too large for a worker's share of the cache budget
	growthPeakBytes    Gauge   // peak projection bytes cached across all workers
	growthCapFallbacks Counter // growth runs handed back to the level-wise engine at the candidate cap
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

// Phase returns the currently-attributed phase (0 outside the pipeline).
func (m *Metrics) Phase() int {
	if m == nil {
		return 0
	}
	return int(m.phase.Load())
}

// cur returns the phaseScan of the current phase.
func (m *Metrics) cur() *phaseScan { return &m.phases[m.phase.Load()] }

// Sequence records one delivered sequence of the given symbol count.
func (m *Metrics) Sequence(symbols int) {
	if m == nil {
		return
	}
	ps := m.cur()
	ps.sequences.Inc()
	ps.symbols.Add(int64(symbols))
}

// ScanDone records one completed full database pass with the bytes it read
// (estimated true when the store cannot report real I/O bytes).
func (m *Metrics) ScanDone(bytes int64, estimated bool) {
	if m == nil {
		return
	}
	ps := m.cur()
	ps.scans.Inc()
	ps.bytes.Add(bytes)
	if estimated {
		m.bytesEstimated.Store(true)
	}
}

// PhaseTime accumulates wall time for phase p.
func (m *Metrics) PhaseTime(p int, d time.Duration) {
	if m == nil || p < 0 || p > 3 {
		return
	}
	m.phases[p].time.Add(d)
}

// SampleDrawn records Phase 1's realized sample size.
func (m *Metrics) SampleDrawn(n int) {
	if m == nil {
		return
	}
	m.sampleSize.Set(int64(n))
}

// LevelEvaluated records one lattice level (or candidate batch) of the given
// width being valued.
func (m *Metrics) LevelEvaluated(candidates int) {
	if m == nil {
		return
	}
	m.levels.Inc()
	m.candidates.Add(int64(candidates))
	m.peakCandidates.SetMax(int64(candidates))
}

// Classified tallies one pattern's label (LabelInfrequent/Ambiguous/Frequent;
// pass int(chernoff.Label)).
func (m *Metrics) Classified(label int) {
	if m == nil || label < 0 || label > 2 {
		return
	}
	m.labels[label].Inc()
}

// ProbeScan records one Phase 3 probe scan counting batch patterns.
func (m *Metrics) ProbeScan(batch int) {
	if m == nil {
		return
	}
	m.probed.Add(int64(batch))
	m.probeBatch.Observe(int64(batch))
}

// ProbeLayer records the lattice level of one probed pattern — the layer
// choice the collapsing schedule made for it.
func (m *Metrics) ProbeLayer(k int) {
	if m == nil {
		return
	}
	m.probeLayers.Observe(int64(k))
}

// ShardScan records one shard's completed probe scan: its wall time, the
// sequences it delivered, and the real bytes it read from its backing store
// (pass -1 when the shard cannot report real I/O — memory-backed shards —
// and the byte counter is left untouched).
func (m *Metrics) ShardScan(d time.Duration, sequences, bytes int64) {
	if m == nil {
		return
	}
	m.shardScans.Inc()
	m.shardUs.Observe(d.Microseconds())
	m.shardSeqs.Add(sequences)
	if bytes >= 0 {
		m.shardBytes.Add(bytes)
	}
}

// RemoteProbe records one shard probe RPC round trip and whether it
// succeeded.
func (m *Metrics) RemoteProbe(d time.Duration, ok bool) {
	if m == nil {
		return
	}
	m.remoteProbes.Inc()
	m.remoteUs.Observe(d.Microseconds())
	if !ok {
		m.remoteFailures.Inc()
	}
}

// RemoteRetry records one probe attempt retried after a node failure.
func (m *Metrics) RemoteRetry() {
	if m == nil {
		return
	}
	m.remoteRetries.Inc()
}

// RemoteReassigned records one probe routed to a different node because its
// preferred node was marked down.
func (m *Metrics) RemoteReassigned() {
	if m == nil {
		return
	}
	m.remoteReassigned.Inc()
}

// RemoteHedge records one hedge probe launched against a second node.
func (m *Metrics) RemoteHedge() {
	if m == nil {
		return
	}
	m.remoteHedges.Inc()
}

// RemoteHedgeWon records one hedge probe that answered before its primary.
func (m *Metrics) RemoteHedgeWon() {
	if m == nil {
		return
	}
	m.remoteHedgesWon.Inc()
}

// RemoteShardLost records one shard abandoned after every node failed it
// within the retry budget.
func (m *Metrics) RemoteShardLost() {
	if m == nil {
		return
	}
	m.remoteShardsLost.Inc()
}

// CheckpointWrite records one persisted snapshot of the given size and the
// wall time its write took.
func (m *Metrics) CheckpointWrite(bytes int64, d time.Duration) {
	if m == nil {
		return
	}
	m.ckptWrites.Inc()
	m.ckptBytes.Add(bytes)
	m.ckptTime.Add(d)
}

// KernelLevel records one Phase 2 lattice level scored by the incremental
// prefix-extension kernel: how many pattern evaluations were served by
// extending a cached parent vs recomputed from scratch, the surviving windows
// cached for the next level, the bytes held by the cache when the level
// closed, the entries the memory budget evicted, and whether the budget
// forced fallback scoring at this level.
func (m *Metrics) KernelLevel(extended, scratch, windows, bytes, evicted int64, fallback bool) {
	if m == nil {
		return
	}
	m.kernelExtended.Add(extended)
	m.kernelScratch.Add(scratch)
	m.kernelWindows.Add(windows)
	m.kernelPeakBytes.SetMax(bytes)
	m.kernelEvicted.Add(evicted)
	if fallback {
		m.kernelFallbacks.Inc()
	}
}

// GrowthNode records one expanded DFS node of the pattern-growth Phase 2
// engine: how many of its children were valued over the projection and how
// many were discarded by the optimistic bound before valuing.
func (m *Metrics) GrowthNode(valued, pruned int64) {
	if m == nil {
		return
	}
	m.growthNodes.Inc()
	m.growthProjValued.Add(valued)
	m.growthPrunes.Add(pruned)
}

// GrowthProjection records one projection materialized by the growth engine —
// extended from a cached prefix projection (reused == true) or built from
// scratch.
func (m *Metrics) GrowthProjection(reused bool) {
	if m == nil {
		return
	}
	if reused {
		m.growthProjReused.Inc()
	} else {
		m.growthProjBuilt.Inc()
	}
}

// GrowthProjectionDenied records a projection too large for a worker's share
// of the cache budget; it served its node transiently and is rebuilt on the
// next visit.
func (m *Metrics) GrowthProjectionDenied() {
	if m == nil {
		return
	}
	m.growthDenied.Inc()
}

// GrowthPeakBytes raises the high-water mark of projection bytes cached
// across all of the growth engine's workers — the figure its budget bounds.
func (m *Metrics) GrowthPeakBytes(n int64) {
	if m == nil {
		return
	}
	m.growthPeakBytes.SetMax(n)
}

// GrowthCapFallback records a growth run stopped at a level over the
// candidate cap, whose Phase 2 was re-run by the level-wise engine.
func (m *Metrics) GrowthCapFallback() {
	if m == nil {
		return
	}
	m.growthCapFallbacks.Inc()
}

// StreamBatch records one streaming Advance: the sequences it appended, the
// sequences the sliding window expired, whether the raw-label border shifted,
// and whether the batch fell back to a scoped re-mine.
func (m *Metrics) StreamBatch(appended, expired int, borderShift, remine bool) {
	if m == nil {
		return
	}
	m.streamBatches.Inc()
	m.streamAppended.Add(int64(appended))
	m.streamExpired.Add(int64(expired))
	if borderShift {
		m.streamBorderShifts.Inc()
	}
	if remine {
		m.streamRemines.Inc()
	}
}

// StreamReprobesAvoided records probe valuations served from the stream's
// cached exact sums instead of a fresh database scan.
func (m *Metrics) StreamReprobesAvoided(n int) {
	if m == nil {
		return
	}
	m.streamReprobesSaved.Add(int64(n))
}

// ResumeHit records that the run resumed from a checkpoint recorded at the
// given phase, skipping scansSkipped full database scans.
func (m *Metrics) ResumeHit(phase, scansSkipped int) {
	if m == nil {
		return
	}
	m.resumedPhase.Set(int64(phase))
	m.scansAvoided.Set(int64(scansSkipped))
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
	StreamReprobesSaved int64 `json:"stream_reprobes_avoided,omitempty"`
	StreamBorderShifts  int64 `json:"stream_border_shifts,omitempty"`
	StreamRemines       int64 `json:"stream_remines,omitempty"`

	CheckpointWrites int64   `json:"checkpoint_writes,omitempty"`
	CheckpointBytes  int64   `json:"checkpoint_bytes,omitempty"`
	CheckpointMillis float64 `json:"checkpoint_millis,omitempty"`
	ResumedPhase     int64   `json:"resumed_phase,omitempty"`
	ScansAvoided     int64   `json:"scans_avoided,omitempty"`

	// Retry carries the scanner's pass/retry counters when the run used a
	// retrying scanner (filled by the orchestrator, not by Metrics itself).
	Retry seqdb.ScanStats `json:"retry"`

	// Degraded flags a run whose Phase 3 budget expired and which returned
	// the graceful partial result (filled by the orchestrator, not by
	// Metrics itself) — so metrics consumers can tell a complete run from a
	// degraded one without parsing the report.
	Degraded bool `json:"degraded,omitempty"`
}

// Snapshot copies the current state. Safe to call concurrently with
// recording; each counter is read atomically (the set is not one atomic
// cut, which is fine for progress reporting).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	var s Snapshot
	for p := 1; p <= 3; p++ {
		ps := &m.phases[p]
		d := ps.time.Elapsed()
		snap := PhaseSnapshot{
			Phase:     p,
			Sequences: ps.sequences.Load(),
			Symbols:   ps.symbols.Load(),
			Bytes:     ps.bytes.Load(),
			Scans:     ps.scans.Load(),
			Millis:    float64(d.Microseconds()) / 1000,
		}
		if d > 0 {
			snap.SequencesPerSec = float64(snap.Sequences) / d.Seconds()
		}
		s.Phases = append(s.Phases, snap)
		s.TotalScans += snap.Scans
		s.TotalSequences += snap.Sequences
		s.TotalSymbols += snap.Symbols
		s.TotalBytes += snap.Bytes
		s.TotalMillis += snap.Millis
	}
	if s.TotalMillis > 0 {
		s.SequencesPerSec = float64(s.TotalSequences) / (s.TotalMillis / 1000)
	}
	s.BytesEstimated = m.bytesEstimated.Load()
	s.SampleSize = m.sampleSize.Load()
	s.Levels = m.levels.Load()
	s.Candidates = m.candidates.Load()
	s.PeakCandidates = m.peakCandidates.Load()
	s.Infrequent = m.labels[LabelInfrequent].Load()
	s.Ambiguous = m.labels[LabelAmbiguous].Load()
	s.Frequent = m.labels[LabelFrequent].Load()
	s.KernelExtended = m.kernelExtended.Load()
	s.KernelScratch = m.kernelScratch.Load()
	s.KernelWindows = m.kernelWindows.Load()
	s.KernelPeakBytes = m.kernelPeakBytes.Load()
	s.KernelEvicted = m.kernelEvicted.Load()
	s.KernelFallbacks = m.kernelFallbacks.Load()
	s.GrowthNodes = m.growthNodes.Load()
	s.GrowthProjBuilt = m.growthProjBuilt.Load()
	s.GrowthProjReused = m.growthProjReused.Load()
	s.GrowthProjValued = m.growthProjValued.Load()
	s.GrowthPrunes = m.growthPrunes.Load()
	s.GrowthDenied = m.growthDenied.Load()
	s.GrowthPeakBytes = m.growthPeakBytes.Load()
	s.GrowthCapFallbacks = m.growthCapFallbacks.Load()
	s.Probed = m.probed.Load()
	s.ProbeBatch = m.probeBatch.Snapshot()
	s.ProbeScans = s.ProbeBatch.Count
	s.ProbeLayers = m.probeLayers.Snapshot()
	s.ShardScans = m.shardScans.Load()
	if s.ShardScans > 0 {
		s.ShardScanUs = m.shardUs.Snapshot()
	}
	s.ShardSequences = m.shardSeqs.Load()
	s.ShardBytes = m.shardBytes.Load()
	s.RemoteProbes = m.remoteProbes.Load()
	if s.RemoteProbes > 0 {
		s.RemoteProbeUs = m.remoteUs.Snapshot()
	}
	s.RemoteFailures = m.remoteFailures.Load()
	s.RemoteRetries = m.remoteRetries.Load()
	s.RemoteReassigned = m.remoteReassigned.Load()
	s.RemoteHedges = m.remoteHedges.Load()
	s.RemoteHedgesWon = m.remoteHedgesWon.Load()
	s.RemoteShardsLost = m.remoteShardsLost.Load()
	s.StreamBatches = m.streamBatches.Load()
	s.StreamAppended = m.streamAppended.Load()
	s.StreamExpired = m.streamExpired.Load()
	s.StreamReprobesSaved = m.streamReprobesSaved.Load()
	s.StreamBorderShifts = m.streamBorderShifts.Load()
	s.StreamRemines = m.streamRemines.Load()
	s.CheckpointWrites = m.ckptWrites.Load()
	s.CheckpointBytes = m.ckptBytes.Load()
	s.CheckpointMillis = float64(m.ckptTime.Elapsed().Microseconds()) / 1000
	s.ResumedPhase = m.resumedPhase.Load()
	s.ScansAvoided = m.scansAvoided.Load()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot for humans.
func (s Snapshot) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("telemetry:\n")
	p("  total: %d scans, %d sequences (%.0f seq/s), %d symbols, %d bytes read",
		s.TotalScans, s.TotalSequences, s.SequencesPerSec, s.TotalSymbols, s.TotalBytes)
	if s.BytesEstimated {
		p(" (estimated)")
	}
	p(", %.1f ms\n", s.TotalMillis)
	for _, ph := range s.Phases {
		p("  phase %d: %d scans, %d sequences, %.1f ms\n", ph.Phase, ph.Scans, ph.Sequences, ph.Millis)
	}
	p("  sample: %d sequences\n", s.SampleSize)
	p("  lattice: %d levels, %d candidates (peak level %d); labels %d frequent / %d ambiguous / %d infrequent\n",
		s.Levels, s.Candidates, s.PeakCandidates, s.Frequent, s.Ambiguous, s.Infrequent)
	if s.KernelExtended > 0 || s.KernelScratch > 0 {
		p("  phase-2 kernel: %d extended / %d scratch, %d windows cached (peak %d bytes), %d evicted, %d fallback levels\n",
			s.KernelExtended, s.KernelScratch, s.KernelWindows, s.KernelPeakBytes, s.KernelEvicted, s.KernelFallbacks)
	}
	if s.GrowthNodes > 0 {
		p("  phase-2 growth: %d nodes, %d projections (%d built / %d reused, %d denied, peak %d bytes cached), %d proj-valued, %d bound-pruned\n",
			s.GrowthNodes, s.GrowthProjBuilt+s.GrowthProjReused, s.GrowthProjBuilt, s.GrowthProjReused,
			s.GrowthDenied, s.GrowthPeakBytes, s.GrowthProjValued, s.GrowthPrunes)
	}
	if s.GrowthCapFallbacks > 0 {
		p("  phase-2 growth: %d runs handed back to the level-wise engine at the candidate cap\n", s.GrowthCapFallbacks)
	}
	p("  probes: %d patterns in %d scans (batch mean %.1f, max %d)\n",
		s.Probed, s.ProbeScans, s.ProbeBatch.Mean, s.ProbeBatch.Max)
	if s.ProbeLayers.Count > 0 {
		p("  layers: mean K %.1f, max K %d\n", s.ProbeLayers.Mean, s.ProbeLayers.Max)
	}
	if s.ShardScans > 0 {
		p("  phase-3 shards: %d shard scans (mean %.1f us, max %d us), %d sequences, %d real bytes\n",
			s.ShardScans, s.ShardScanUs.Mean, s.ShardScanUs.Max, s.ShardSequences, s.ShardBytes)
	}
	if s.RemoteProbes > 0 {
		p("  phase-3 remote: %d probes (%d failed, mean %.1f us, max %d us), %d retries, %d reassigned, %d hedges (%d won), %d shards lost\n",
			s.RemoteProbes, s.RemoteFailures, s.RemoteProbeUs.Mean, s.RemoteProbeUs.Max,
			s.RemoteRetries, s.RemoteReassigned, s.RemoteHedges, s.RemoteHedgesWon, s.RemoteShardsLost)
	}
	if s.StreamBatches > 0 {
		p("  streaming: %d batches, %d appended, %d expired, %d re-probes avoided, %d border shifts, %d re-mines\n",
			s.StreamBatches, s.StreamAppended, s.StreamExpired,
			s.StreamReprobesSaved, s.StreamBorderShifts, s.StreamRemines)
	}
	if s.CheckpointWrites > 0 {
		p("  checkpoints: %d writes, %d bytes, %.1f ms\n",
			s.CheckpointWrites, s.CheckpointBytes, s.CheckpointMillis)
	}
	if s.ResumedPhase > 0 {
		p("  resume: from phase %d, %d scans avoided\n", s.ResumedPhase, s.ScansAvoided)
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
