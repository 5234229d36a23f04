package telemetry

// ID names one metric: its index in the table.
type ID uint8

// Metric IDs, named after the Snapshot fields they fill. The scan-traffic
// IDs come first (they are kept per pipeline phase) and the histograms last.
const (
	TotalScans ID = iota
	TotalSequences
	TotalSymbols
	TotalBytes
	TotalMillis

	BytesEstimated
	SampleSize
	Levels
	Candidates
	PeakCandidates
	Infrequent // the label counters follow chernoff.Label's order
	Ambiguous
	Frequent
	Probed
	ProbeScans
	ShardScans
	ShardSequences
	ShardBytes
	RemoteProbes
	RemoteFailures
	RemoteRetries
	RemoteReassigned
	RemoteHedges
	RemoteHedgesWon
	RemoteShardsLost
	KernelExtended
	KernelScratch
	KernelWindows
	KernelPeakBytes
	KernelEvicted
	KernelFallbacks
	GrowthNodes
	GrowthProjBuilt
	GrowthProjReused
	GrowthProjValued
	GrowthPrunes
	GrowthDenied
	GrowthPeakBytes
	GrowthCapFallbacks
	StreamBatches
	StreamAppended
	StreamExpired
	StreamReplaced
	StreamReprobesSaved
	StreamRemines
	StreamRescored
	CheckpointWrites
	CheckpointBytes
	CheckpointMillis
	ResumedPhase
	ScansAvoided
	SlotsBorrowed

	ProbeBatch
	ProbeLayers
	ShardScanUs
	RemoteProbeUs

	numIDs
)

const (
	numPhased = TotalMillis + 1 // the scan-traffic IDs
	firstHist = ProbeBatch
)

// Classified returns the counter of patterns given label (pass
// int(chernoff.Label)).
func Classified(label int) ID { return Infrequent + ID(label) }

// kind is how a metric is recorded and summed.
type kind uint8

const (
	counter   kind = iota // Add; summed across collectors and exported to /metrics
	gauge                 // Set: the last value
	maxGauge              // Max: the high-water mark
	timer                 // Add of nanoseconds, reported in milliseconds; summed
	histogram             // Observe
)

// entry defines one metric. field returns the Snapshot field the metric
// fills: an *int64, a *bool (a flag kept as a max gauge), a *float64 of
// milliseconds (a timer) or a *HistogramSnapshot.
type entry struct {
	name  string // the field's JSON key
	prom  string // the /metrics series stem, when it is not name
	kind  kind
	unit  string
	help  string
	field func(*Snapshot) any
}

var table = [numIDs]entry{
	TotalScans: {name: "total_scans", prom: "scans", kind: counter, unit: "scans",
		help: "Completed full database passes.", field: func(s *Snapshot) any { return &s.TotalScans }},
	TotalSequences: {name: "total_sequences", prom: "scan_sequences", kind: counter, unit: "sequences",
		help: "Sequences delivered by database passes, retried attempts included.", field: func(s *Snapshot) any { return &s.TotalSequences }},
	TotalSymbols: {name: "total_symbols", prom: "scan_symbols", kind: counter, unit: "symbols",
		help: "Symbols delivered by database passes.", field: func(s *Snapshot) any { return &s.TotalSymbols }},
	TotalBytes: {name: "total_bytes", prom: "scan_bytes", kind: counter, unit: "bytes",
		help: "Bytes database passes read (4 per symbol for stores that cannot report I/O).", field: func(s *Snapshot) any { return &s.TotalBytes }},
	TotalMillis: {name: "total_millis", kind: timer, unit: "ms",
		help: "Wall time of the pipeline phases.", field: func(s *Snapshot) any { return &s.TotalMillis }},

	BytesEstimated: {name: "bytes_estimated", kind: maxGauge,
		help: "Whether some pass's bytes were estimated from its symbols.", field: func(s *Snapshot) any { return &s.BytesEstimated }},
	SampleSize: {name: "sample_size", kind: gauge, unit: "sequences",
		help: "Sequences drawn into the Phase 1 sample.", field: func(s *Snapshot) any { return &s.SampleSize }},
	Levels: {name: "lattice_levels", kind: counter, unit: "levels",
		help: "Lattice levels (or candidate batches) valued in Phase 2.", field: func(s *Snapshot) any { return &s.Levels }},
	Candidates: {name: "candidates", kind: counter, unit: "patterns",
		help: "Candidates valued in Phase 2.", field: func(s *Snapshot) any { return &s.Candidates }},
	PeakCandidates: {name: "peak_candidates", kind: maxGauge, unit: "patterns",
		help: "Candidates of the widest Phase 2 level.", field: func(s *Snapshot) any { return &s.PeakCandidates }},
	Infrequent: {name: "classified_infrequent", kind: counter, unit: "patterns",
		help: "Patterns labeled infrequent.", field: func(s *Snapshot) any { return &s.Infrequent }},
	Ambiguous: {name: "classified_ambiguous", kind: counter, unit: "patterns",
		help: "Patterns labeled ambiguous.", field: func(s *Snapshot) any { return &s.Ambiguous }},
	Frequent: {name: "classified_frequent", kind: counter, unit: "patterns",
		help: "Patterns labeled frequent.", field: func(s *Snapshot) any { return &s.Frequent }},
	Probed: {name: "probed_patterns", kind: counter, unit: "patterns",
		help: "Patterns counted against the database in Phase 3.", field: func(s *Snapshot) any { return &s.Probed }},
	ProbeScans: {name: "probe_scans", kind: counter, unit: "scans",
		help: "Phase 3 probe scans.", field: func(s *Snapshot) any { return &s.ProbeScans }},
	ShardScans: {name: "phase3_shard_scans", kind: counter, unit: "scans",
		help: "Per-shard Phase 3 scans completed.", field: func(s *Snapshot) any { return &s.ShardScans }},
	ShardSequences: {name: "phase3_shard_sequences", kind: counter, unit: "sequences",
		help: "Sequences delivered by shard scans.", field: func(s *Snapshot) any { return &s.ShardSequences }},
	ShardBytes: {name: "phase3_shard_bytes", kind: counter, unit: "bytes",
		help: "Bytes read by shard scans whose shards report I/O.", field: func(s *Snapshot) any { return &s.ShardBytes }},
	RemoteProbes: {name: "phase3_remote_probes", kind: counter, unit: "RPCs",
		help: "Shard probe RPCs issued, hedges and retries included.", field: func(s *Snapshot) any { return &s.RemoteProbes }},
	RemoteFailures: {name: "phase3_remote_failures", kind: counter, unit: "RPCs",
		help: "Shard probe RPCs that failed.", field: func(s *Snapshot) any { return &s.RemoteFailures }},
	RemoteRetries: {name: "phase3_remote_retries", kind: counter, unit: "probes",
		help: "Probe attempts retried after a node failure.", field: func(s *Snapshot) any { return &s.RemoteRetries }},
	RemoteReassigned: {name: "phase3_remote_reassigned", kind: counter, unit: "probes",
		help: "Probes routed away from a down preferred node.", field: func(s *Snapshot) any { return &s.RemoteReassigned }},
	RemoteHedges: {name: "phase3_remote_hedges", kind: counter, unit: "probes",
		help: "Hedge probes launched against a second node.", field: func(s *Snapshot) any { return &s.RemoteHedges }},
	RemoteHedgesWon: {name: "phase3_remote_hedges_won", kind: counter, unit: "probes",
		help: "Hedge probes that answered before their primary.", field: func(s *Snapshot) any { return &s.RemoteHedgesWon }},
	RemoteShardsLost: {name: "phase3_remote_shards_lost", kind: counter, unit: "shards",
		help: "Shards given up on after every node failed them.", field: func(s *Snapshot) any { return &s.RemoteShardsLost }},
	KernelExtended: {name: "kernel_extended", kind: counter, unit: "patterns",
		help: "Phase 2 valuations served by extending a cached parent projection.", field: func(s *Snapshot) any { return &s.KernelExtended }},
	KernelScratch: {name: "kernel_scratch", kind: counter, unit: "patterns",
		help: "Phase 2 valuations computed from scratch.", field: func(s *Snapshot) any { return &s.KernelScratch }},
	KernelWindows: {name: "kernel_windows", kind: counter, unit: "windows",
		help: "Surviving windows cached across Phase 2 levels.", field: func(s *Snapshot) any { return &s.KernelWindows }},
	KernelPeakBytes: {name: "kernel_peak_bytes", kind: maxGauge, unit: "bytes",
		help: "Peak bytes of the level-wise kernel's projection cache.", field: func(s *Snapshot) any { return &s.KernelPeakBytes }},
	KernelEvicted: {name: "kernel_evicted", kind: counter, unit: "projections",
		help: "Parent projections the cache budget denied.", field: func(s *Snapshot) any { return &s.KernelEvicted }},
	KernelFallbacks: {name: "kernel_fallbacks", kind: counter, unit: "levels",
		help: "Phase 2 levels where the cache budget denied a parent.", field: func(s *Snapshot) any { return &s.KernelFallbacks }},
	GrowthNodes: {name: "growth_nodes", kind: counter, unit: "nodes",
		help: "DFS nodes the growth engine expanded.", field: func(s *Snapshot) any { return &s.GrowthNodes }},
	GrowthProjBuilt: {name: "growth_proj_built", kind: counter, unit: "projections",
		help: "Growth projections built from scratch.", field: func(s *Snapshot) any { return &s.GrowthProjBuilt }},
	GrowthProjReused: {name: "growth_proj_reused", kind: counter, unit: "projections",
		help: "Growth projections extended from a cached parent projection.", field: func(s *Snapshot) any { return &s.GrowthProjReused }},
	GrowthProjValued: {name: "growth_proj_valued", kind: counter, unit: "patterns",
		help: "Growth candidates valued by a projection walk.", field: func(s *Snapshot) any { return &s.GrowthProjValued }},
	GrowthPrunes: {name: "growth_prunes", kind: counter, unit: "patterns",
		help: "Growth candidates discarded by the optimistic bound.", field: func(s *Snapshot) any { return &s.GrowthPrunes }},
	GrowthDenied: {name: "growth_denied", kind: counter, unit: "projections",
		help: "Growth projections too large for a worker's share of the cache budget.", field: func(s *Snapshot) any { return &s.GrowthDenied }},
	GrowthPeakBytes: {name: "growth_peak_bytes", kind: maxGauge, unit: "bytes",
		help: "Peak projection bytes cached across the growth engine's workers.", field: func(s *Snapshot) any { return &s.GrowthPeakBytes }},
	GrowthCapFallbacks: {name: "growth_cap_fallbacks", kind: counter, unit: "runs",
		help: "Growth runs handed back to the level-wise engine at the candidate cap.", field: func(s *Snapshot) any { return &s.GrowthCapFallbacks }},
	StreamBatches: {name: "stream_batches", kind: counter, unit: "batches",
		help: "Batches advanced through the streaming pipeline.", field: func(s *Snapshot) any { return &s.StreamBatches }},
	StreamAppended: {name: "stream_appended", kind: counter, unit: "sequences",
		help: "Sequences appended across stream batches.", field: func(s *Snapshot) any { return &s.StreamAppended }},
	StreamExpired: {name: "stream_expired", kind: counter, unit: "sequences",
		help: "Sequences expired out of the sliding window.", field: func(s *Snapshot) any { return &s.StreamExpired }},
	StreamReplaced: {name: "stream_replaced", kind: counter, unit: "sequences",
		help: "Reservoir members replaced by appended sequences; the batch's re-mine rescores them.", field: func(s *Snapshot) any { return &s.StreamReplaced }},
	StreamReprobesSaved: {name: "stream_reprobes_avoided", kind: counter, unit: "patterns",
		help: "Probe valuations served from the stream's cached exact sums.", field: func(s *Snapshot) any { return &s.StreamReprobesSaved }},
	StreamRemines: {name: "stream_remines", kind: counter, unit: "batches",
		help: "Scoped Phase 2 re-mines of the stream.", field: func(s *Snapshot) any { return &s.StreamRemines }},
	StreamRescored: {name: "stream_rescored_members", kind: counter, unit: "sequences",
		help: "Sample members the stream's re-mines re-valued: the slots changed since each one's previous mine.", field: func(s *Snapshot) any { return &s.StreamRescored }},
	CheckpointWrites: {name: "checkpoint_writes", kind: counter, unit: "snapshots",
		help: "Checkpoint snapshots written.", field: func(s *Snapshot) any { return &s.CheckpointWrites }},
	CheckpointBytes: {name: "checkpoint_bytes", kind: counter, unit: "bytes",
		help: "Bytes of checkpoint snapshots written.", field: func(s *Snapshot) any { return &s.CheckpointBytes }},
	CheckpointMillis: {name: "checkpoint_millis", kind: timer, unit: "ms",
		help: "Wall time spent writing checkpoint snapshots.", field: func(s *Snapshot) any { return &s.CheckpointMillis }},
	ResumedPhase: {name: "resumed_phase", kind: gauge, unit: "phase",
		help: "Phase the run resumed from (0 for a fresh run).", field: func(s *Snapshot) any { return &s.ResumedPhase }},
	ScansAvoided: {name: "scans_avoided", kind: gauge, unit: "scans",
		help: "Full scans skipped by resuming.", field: func(s *Snapshot) any { return &s.ScansAvoided }},
	SlotsBorrowed: {name: "slots_borrowed", kind: counter, unit: "slots",
		help: "Idle worker slots lent to a running job, summed over the sections that borrowed them.", field: func(s *Snapshot) any { return &s.SlotsBorrowed }},

	ProbeBatch: {name: "probe_batch", kind: histogram, unit: "patterns",
		help: "Patterns counted per Phase 3 probe scan.", field: func(s *Snapshot) any { return &s.ProbeBatch }},
	ProbeLayers: {name: "probe_layers", kind: histogram, unit: "level",
		help: "Lattice level of each probed pattern: the layers border collapsing chose.", field: func(s *Snapshot) any { return &s.ProbeLayers }},
	ShardScanUs: {name: "phase3_shard_scan_us", kind: histogram, unit: "us",
		help: "Wall time of each shard scan.", field: func(s *Snapshot) any { return &s.ShardScanUs }},
	RemoteProbeUs: {name: "phase3_remote_probe_us", kind: histogram, unit: "us",
		help: "Round-trip time of each shard probe RPC.", field: func(s *Snapshot) any { return &s.RemoteProbeUs }},
}
