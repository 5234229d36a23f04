// Streaming front-end: core.Stream runs the incremental pipeline
// (internal/stream) over an append-only seqdb log, persisting each advanced
// state as a crash-atomic checkpoint snapshot — the same LCKP format batch
// runs use, extended with a stream section — so a killed streaming session
// resumes bit-identically, including any sequences appended while it was
// down.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/compat"
	"repro/internal/miner"
	"repro/internal/seqdb"
	"repro/internal/stream"
)

// engineStream names the streaming pipeline in checkpoint snapshots.
const engineStream = "stream"

// StreamConfig parameterizes a streaming session. The embedded Config fields
// carry their batch semantics where they apply; Finalizer, Phase2Engine,
// Remote, Rng, Checkpoint and PhaseTimeouts are ignored —
// streaming always border-collapses with the level-wise candidate miner, its
// reservoir is driven by Seed (stateless draws, no RNG state), and
// durability is configured by CheckpointPath.
type StreamConfig struct {
	Config
	// Seed drives the stateless reservoir draws (any fixed value; required
	// for reproducibility, recorded in the checkpoint).
	Seed int64
	// Window, when > 0, keeps at most that many live sequences (sliding
	// window): Advance expires older sequences from the log first.
	Window int
	// CheckpointPath, when non-empty, persists the stream state after every
	// Advance (crash-atomic). Resume with ResumeStream.
	CheckpointPath string
}

func (cfg *StreamConfig) streamConfig(c compat.Source) stream.Config {
	return stream.Config{
		C:                     c,
		MinMatch:              cfg.MinMatch,
		Delta:                 cfg.Delta,
		SampleSize:            cfg.SampleSize,
		MaxLen:                cfg.MaxLen,
		MaxGap:                cfg.MaxGap,
		MaxCandidatesPerLevel: cfg.MaxCandidatesPerLevel,
		MemBudget:             cfg.MemBudget,
		Workers:               cfg.Workers,
		Kernel:                stream.Kernel(cfg.Phase2Kernel),
		CacheBudget:           cfg.Phase2CacheBudget,
		Seed:                  cfg.Seed,
		Window:                cfg.Window,
		Metrics:               cfg.Metrics,
	}
}

// streamConfigHash fingerprints the fields that shape a streaming session's
// results (like configHash, tuning knobs — Workers, Phase2Kernel, Metrics —
// are excluded; Seed and Window are included because they shape the sample
// and the mined window).
func streamConfigHash(cfg *StreamConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%d|%d|%d|%d|%d|%d|%d|%s",
		cfg.MinMatch, cfg.Delta, cfg.SampleSize, cfg.MaxLen, cfg.MaxGap,
		cfg.MaxCandidatesPerLevel, cfg.MemBudget, cfg.Window, cfg.Seed, engineStream)
	return h.Sum64()
}

// Stream is a durable streaming session over one append log. Not safe for
// concurrent use.
type Stream struct {
	s    *stream.Stream
	db   *seqdb.AppendDB
	cfg  StreamConfig
	hash uint64
}

// NewStream opens a fresh streaming session over db. Nothing is consumed
// until Advance.
func NewStream(db *seqdb.AppendDB, c compat.Source, cfg StreamConfig) (*Stream, error) {
	cfg.Config.setDefaults()
	s, err := stream.New(db, cfg.streamConfig(c))
	if err != nil {
		return nil, err
	}
	return &Stream{s: s, db: db, cfg: cfg, hash: streamConfigHash(&cfg)}, nil
}

// ResumeStream restores the session checkpointed at path and continues over
// db — including any sequences appended (or expired) while the session was
// down; they are consumed by the next Advance. The snapshot must have been
// written by a streaming session with an equivalent configuration against
// the same log (errors wrap ErrIncompatible otherwise).
func ResumeStream(path string, db *seqdb.AppendDB, c compat.Source, cfg StreamConfig) (*Stream, error) {
	snap, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	if snap.Engine != engineStream {
		return nil, fmt.Errorf("%w: snapshot engine %q, want %q", ErrIncompatible, snap.Engine, engineStream)
	}
	if snap.Stream == nil {
		return nil, fmt.Errorf("%w: snapshot carries no stream section", ErrIncompatible)
	}
	cfg.Config.setDefaults()
	if hash := streamConfigHash(&cfg); hash != snap.ConfigHash {
		return nil, fmt.Errorf("%w: config hash %#x, snapshot %#x", ErrIncompatible, hash, snap.ConfigHash)
	}
	if p := db.Path(); p != "" && snap.DBPath != "" && p != snap.DBPath {
		return nil, fmt.Errorf("%w: log path %q, snapshot recorded %q", ErrIncompatible, p, snap.DBPath)
	}
	if snap.Stream.Cursor > db.Total() {
		return nil, fmt.Errorf("%w: snapshot cursor %d beyond the log's %d sequences", ErrIncompatible, snap.Stream.Cursor, db.Total())
	}
	st := &stream.State{
		Cursor:      snap.Stream.Cursor,
		WindowStart: snap.Stream.WindowStart,
		Sample:      snap.Sample,
		SymbolSums:  snap.Stream.SymbolSums,
		SampleSums:  snap.Stream.SampleSums,
		ExactSums:   snap.Stream.ExactSums,
	}
	var mine *miner.Result
	if snap.Phase >= 2 {
		if mine, err = phase2FromSnapshot(snap.Phase2); err != nil {
			return nil, err
		}
	}
	s, err := stream.Restore(db, cfg.streamConfig(c), st, mine)
	if err != nil {
		return nil, err
	}
	return &Stream{s: s, db: db, cfg: cfg, hash: streamConfigHash(&cfg)}, nil
}

// Advance consumes everything appended since the last call, returns the
// refreshed frequent set over the live window, and — when CheckpointPath is
// set — persists the advanced state crash-atomically before returning, so
// at most one batch is ever replayed after a crash.
func (st *Stream) Advance(ctx context.Context) (*stream.Result, error) {
	res, err := st.s.Advance(ctx)
	if err != nil {
		return nil, err
	}
	if st.cfg.CheckpointPath != "" {
		if err := st.checkpoint(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Cursor returns the absolute id of the next unconsumed sequence.
func (st *Stream) Cursor() int { return st.s.Cursor() }

// checkpoint snapshots the stream state (phase1 sample + symbol matches,
// phase2 live mine when one exists, stream section) and saves it.
func (st *Stream) checkpoint() error {
	state := st.s.State()
	n := state.Cursor - state.WindowStart
	matches := make([]float64, len(state.SymbolSums))
	if n > 0 {
		for i, v := range state.SymbolSums {
			matches[i] = v / float64(n)
		}
	}
	snap := &checkpoint.Snapshot{
		ConfigHash:  st.hash,
		DBPath:      st.db.Path(),
		DBLen:       st.db.Total(),
		Engine:      engineStream,
		Seed:        st.cfg.Seed,
		Phase:       1,
		SymbolMatch: matches,
		Sample:      state.Sample,
		Stream: &checkpoint.StreamState{
			Cursor:      state.Cursor,
			WindowStart: state.WindowStart,
			SymbolSums:  state.SymbolSums,
			SampleSums:  state.SampleSums,
			ExactSums:   state.ExactSums,
		},
	}
	if mine := st.s.LastMine(); mine != nil {
		snap.Phase = 2
		snap.Phase2 = phase2ToSnapshot(mine)
	}
	start := time.Now()
	size, err := checkpoint.Save(st.cfg.CheckpointPath, snap)
	if err != nil {
		return fmt.Errorf("core: stream checkpoint: %w", err)
	}
	st.cfg.Metrics.CheckpointWrite(size, time.Since(start))
	return nil
}
