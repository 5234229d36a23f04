package seqdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/pattern"
)

// Sharding splits a database into N contiguous, fixed-boundary id ranges so
// Phase 3 probe scans can scatter across shards and gather per-shard sums.
// Boundaries are aligned to probe blocks — fixed-size runs of sequences whose
// size depends only on the database length — so every shard count yields the
// same set of block boundaries. A gather that accumulates per block and
// merges blocks in ascending id order therefore produces bit-identical float
// sums for every shard and worker count, unsharded stores included (the same
// discipline the Phase 2 kernel uses for its deterministic merge).

// ProbeBlockSize returns the probe-block length for an n-sequence database:
// at least 16 sequences, and at most ~256 blocks overall so a gather holding
// per-block partial sums stays small. It is a function of n alone — never of
// the shard or worker count — which is what makes block-merged sums
// layout-independent.
func ProbeBlockSize(n int) int {
	if n <= 0 {
		return 1
	}
	b := (n + 255) / 256
	if b < 16 {
		b = 16
	}
	return b
}

// shardBounds returns the shard boundaries for an n-sequence database cut
// into at most shards pieces on block-aligned offsets: bounds[i] is shard i's
// first global id, bounds[len(bounds)-1] == n. Every shard holds at least one
// block, so the effective shard count is min(shards, ceil(n/block)).
func shardBounds(n, shards, block int) []int {
	if shards < 1 {
		shards = 1
	}
	numBlocks := (n + block - 1) / block
	if numBlocks < 1 {
		numBlocks = 1
	}
	if shards > numBlocks {
		shards = numBlocks
	}
	bounds := make([]int, shards+1)
	for i := 1; i < shards; i++ {
		b := block * (numBlocks * i / shards)
		if b > n {
			b = n
		}
		bounds[i] = b
	}
	bounds[shards] = n
	return bounds
}

// RangeScanner is implemented by stores that can deliver one contiguous id
// range [lo, hi) without paying for a full pass (MemDB by indexing, DiskDB by
// stopping after the range). A range delivery is a partial pass: it never
// increments the store's Scans counter.
type RangeScanner interface {
	ScanRangeContext(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error
}

// RangePassScanner is the retryable form of RangeScanner (RetryScanner):
// setup is re-invoked per attempt so a failed range delivery re-runs with
// fresh consumer state.
type RangePassScanner interface {
	ScanRangePassContext(ctx context.Context, lo, hi int, setup PassFunc) error
}

// errRangeDone aborts a filtered full scan once the range's last sequence has
// been delivered; it never escapes the range-scanning helpers.
var errRangeDone = errors.New("seqdb: range delivered")

// scanRangeOnce delivers the id range [lo, hi) of db exactly once: natively
// when db implements RangeScanner, otherwise by a filtered full scan aborted
// right after id hi-1 (so the underlying pass never completes and is never
// counted as a scan, on any shard).
func scanRangeOnce(ctx context.Context, db Scanner, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error {
	if lo >= hi {
		return nil
	}
	if rs, ok := db.(RangeScanner); ok {
		return rs.ScanRangeContext(ctx, lo, hi, fn)
	}
	err := ScanContext(ctx, db, func(id int, seq []pattern.Symbol) error {
		if id >= hi {
			return errRangeDone
		}
		if id < lo {
			return nil
		}
		if err := fn(id, seq); err != nil {
			return err
		}
		if id == hi-1 {
			return errRangeDone
		}
		return nil
	})
	if errors.Is(err, errRangeDone) {
		return nil
	}
	return err
}

// rangeView is one shard of a parent scanner: the global id range [lo, hi).
// It delivers global ids, so consumers can map sequences onto probe blocks
// regardless of which shard delivered them.
type rangeView struct {
	parent Scanner
	lo, hi int
	scans  atomic.Int64
}

// Len returns the shard's sequence count.
func (v *rangeView) Len() int { return v.hi - v.lo }

// Scans returns the number of completed passes over this shard.
func (v *rangeView) Scans() int { return int(v.scans.Load()) }

// ResetScans zeroes the shard's pass counter.
func (v *rangeView) ResetScans() { v.scans.Store(0) }

// Scan implements Scanner.
func (v *rangeView) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return v.ScanContext(nil, fn)
}

// ScanContext implements ContextScanner.
func (v *rangeView) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return v.ScanPassContext(ctx, func() (func(id int, seq []pattern.Symbol) error, error) {
		return fn, nil
	})
}

// ScanPassContext implements PassScanner: a retrying parent re-runs a failed
// shard delivery with fresh consumer state; other parents get one attempt.
func (v *rangeView) ScanPassContext(ctx context.Context, setup PassFunc) error {
	var err error
	if rp, ok := v.parent.(RangePassScanner); ok {
		err = rp.ScanRangePassContext(ctx, v.lo, v.hi, setup)
	} else {
		fn, serr := setup()
		if serr != nil {
			return serr
		}
		err = scanRangeOnce(ctx, v.parent, v.lo, v.hi, fn)
	}
	if err == nil {
		v.scans.Add(1)
	}
	return err
}

// ScanRangeContext implements RangeScanner: the view's global id range
// intersected with [lo, hi), delegated to the parent. A partial delivery, so
// it never counts as a pass of the view or the parent.
func (v *rangeView) ScanRangeContext(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error {
	if lo < v.lo {
		lo = v.lo
	}
	if hi > v.hi {
		hi = v.hi
	}
	return scanRangeOnce(ctx, v.parent, lo, hi, fn)
}

// offsetScanner shifts a native shard file's local ids into the global id
// space of its shard set.
type offsetScanner struct {
	inner Scanner
	off   int
}

func (o *offsetScanner) Len() int    { return o.inner.Len() }
func (o *offsetScanner) Scans() int  { return o.inner.Scans() }
func (o *offsetScanner) ResetScans() { o.inner.ResetScans() }
func (o *offsetScanner) shift(fn func(id int, seq []pattern.Symbol) error) func(id int, seq []pattern.Symbol) error {
	return func(id int, seq []pattern.Symbol) error { return fn(id+o.off, seq) }
}

// BytesRead forwards the wrapped store's real-I/O counter (0 when it has
// none; check ReportsBytes).
func (o *offsetScanner) BytesRead() int64 {
	if br, ok := o.inner.(byteReader); ok {
		return br.BytesRead()
	}
	return 0
}

// ReportsBytes reports whether BytesRead is backed by a real counter.
func (o *offsetScanner) ReportsBytes() bool {
	_, ok := o.inner.(byteReader)
	return ok
}

func (o *offsetScanner) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return o.inner.Scan(o.shift(fn))
}

func (o *offsetScanner) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return ScanContext(ctx, o.inner, o.shift(fn))
}

func (o *offsetScanner) ScanPassContext(ctx context.Context, setup PassFunc) error {
	return ScanPassContext(ctx, o.inner, func() (func(id int, seq []pattern.Symbol) error, error) {
		fn, err := setup()
		if err != nil {
			return nil, err
		}
		return o.shift(fn), nil
	})
}

// ScanRangeContext implements RangeScanner in the global id space: the
// request is translated back into the wrapped store's local ids.
func (o *offsetScanner) ScanRangeContext(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error {
	return scanRangeOnce(ctx, o.inner, lo-o.off, hi-o.off, o.shift(fn))
}

// byteReader mirrors the telemetry layer's real-I/O interface without
// importing it (DiskDB, GzipDB).
type byteReader interface {
	BytesRead() int64
}

// Sharded is a sequence database cut into N deterministic fixed-boundary
// shards — either views over one backing Scanner (ShardScanner) or a native
// multi-file shard set (OpenShardSet). It implements Scanner by scanning the
// shards in ascending order with global sequence ids, and additionally
// exposes the per-shard scanners for the Phase 3 gather
// (miner.ProbeValuer).
type Sharded struct {
	shards   []Scanner
	starts   []int // starts[i] = shard i's first global id; starts[len(shards)] = Len
	block    int
	paths    []string // native shard-set file paths (empty for views)
	byteSrcs []byteReader
	allBytes bool // every sequence's delivery is covered by byteSrcs
	scans    atomic.Int64
}

// ShardScanner cuts db into up to n block-aligned shard views (see
// ProbeBlockSize; small databases yield fewer shards than requested, never
// fewer than one). The views deliver global ids and share db as their backing
// store, so they must not be scanned concurrently with an unrelated full pass
// of db.
func ShardScanner(db Scanner, n int) *Sharded {
	total := db.Len()
	block := ProbeBlockSize(total)
	bounds := shardBounds(total, n, block)
	s := &Sharded{
		shards: make([]Scanner, len(bounds)-1),
		starts: bounds,
		block:  block,
	}
	for i := range s.shards {
		s.shards[i] = &rangeView{parent: db, lo: bounds[i], hi: bounds[i+1]}
	}
	if br, ok := db.(byteReader); ok {
		s.byteSrcs = []byteReader{br}
		s.allBytes = true
	}
	return s
}

// ShardPath names shard i of an n-shard set derived from base:
// "<base>.shard-007-of-016.lsq". The fixed-width numbering keeps a sorted
// directory listing in shard order.
func ShardPath(base string, i, n int) string {
	return fmt.Sprintf("%s.shard-%03d-of-%03d.lsq", base, i, n)
}

// WriteShardFiles splits db into up to n LSQ2 shard files next to base (see
// ShardPath), cut on exactly the boundaries ShardScanner(db, n) would use, so
// mining a written shard set is bit-identical to view-sharding the source
// database. It costs one full scan of db and returns the written paths in
// shard order; on error, partially-written files are removed.
func WriteShardFiles(db Scanner, base string, n int) ([]string, error) {
	total := db.Len()
	bounds := shardBounds(total, n, ProbeBlockSize(total))
	shards := len(bounds) - 1
	paths := make([]string, shards)
	for i := range paths {
		paths[i] = ShardPath(base, i, shards)
	}
	var w *Writer
	cur := -1
	cleanup := func() {
		if w != nil {
			w.f.Close()
		}
		for i := 0; i <= cur && i < shards; i++ {
			os.Remove(paths[i])
		}
	}
	err := db.Scan(func(id int, seq []pattern.Symbol) error {
		for cur+1 < shards && id >= bounds[cur+1] {
			if w != nil {
				if err := w.Close(); err != nil {
					return err
				}
				w = nil
			}
			cur++
			nw, err := CreateFile(paths[cur])
			if err != nil {
				return err
			}
			w = nw
		}
		return w.Write(seq)
	})
	if err == nil && w != nil {
		err = w.Close()
		w = nil
	}
	// Materialize any shards the scan never reached (an empty database) so
	// every returned path exists.
	for err == nil && cur+1 < shards {
		cur++
		nw, cerr := CreateFile(paths[cur])
		if cerr != nil {
			err = cerr
			break
		}
		err = nw.Close()
	}
	if err != nil {
		cleanup()
		return nil, err
	}
	return paths, nil
}

// OpenShardSet opens the files of one shard set, in shard order, as a single
// Sharded database: shard i's sequences get the global ids following shard
// i-1's. Any mix of LSQ formats is accepted (OpenAuto).
func OpenShardSet(paths []string) (*Sharded, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("seqdb: empty shard set")
	}
	s := &Sharded{
		shards:   make([]Scanner, len(paths)),
		starts:   make([]int, len(paths)+1),
		paths:    append([]string(nil), paths...),
		allBytes: true,
	}
	off := 0
	for i, p := range paths {
		db, err := OpenAuto(p)
		if err != nil {
			return nil, fmt.Errorf("seqdb: shard %d: %w", i, err)
		}
		s.starts[i] = off
		s.shards[i] = &offsetScanner{inner: db, off: off}
		off += db.Len()
		if br, ok := db.(byteReader); ok {
			s.byteSrcs = append(s.byteSrcs, br)
		} else {
			s.allBytes = false
		}
	}
	s.starts[len(paths)] = off
	s.block = ProbeBlockSize(off)
	return s, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's scanner; it delivers global sequence ids.
func (s *Sharded) Shard(i int) Scanner { return s.shards[i] }

// ShardStart returns shard i's first global id (i may equal NumShards, giving
// Len).
func (s *Sharded) ShardStart(i int) int { return s.starts[i] }

// BlockSize returns the probe-block length scatter-gather consumers must
// accumulate on for layout-independent merged sums. View shard boundaries are
// always block-aligned; native shard files are when written by
// WriteShardFiles.
func (s *Sharded) BlockSize() int { return s.block }

// Len implements Scanner.
func (s *Sharded) Len() int { return s.starts[len(s.shards)] }

// Scans returns the number of completed logical passes: sequential full scans
// plus scatter-gather passes recorded via NotePass.
func (s *Sharded) Scans() int { return int(s.scans.Load()) }

// ResetScans zeroes the logical-pass counter.
func (s *Sharded) ResetScans() { s.scans.Store(0) }

// NotePass records one completed logical pass assembled from per-shard scans;
// scatter-gather consumers call it after a successful gather so Scans keeps
// counting whole-database passes.
func (s *Sharded) NotePass() { s.scans.Add(1) }

// Path identifies a native shard set by its joined file paths (empty for
// views), so checkpoint identity checks see through the sharding.
func (s *Sharded) Path() string { return strings.Join(s.paths, ",") }

// BytesRead sums the real I/O bytes of every byte-reporting backing store.
// Check ReportsBytes before trusting it: a memory-backed Sharded reports 0.
func (s *Sharded) BytesRead() int64 {
	var n int64
	for _, br := range s.byteSrcs {
		n += br.BytesRead()
	}
	return n
}

// ReportsBytes reports whether BytesRead covers all the data (every backing
// store is disk-resident); false means byte telemetry must be estimated.
func (s *Sharded) ReportsBytes() bool { return s.allBytes }

// Scan implements Scanner.
func (s *Sharded) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return s.ScanContext(nil, fn)
}

// ScanContext implements ContextScanner: one sequential pass over the shards
// in ascending order, delivering global ids.
func (s *Sharded) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	for _, sh := range s.shards {
		if err := ScanContext(ctx, sh, fn); err != nil {
			return err
		}
	}
	s.scans.Add(1)
	return nil
}

// ScanRangeContext implements RangeScanner: the global id range [lo, hi)
// delivered by the covering shards only, so a range probe over a native
// multi-file shard set touches just the files that intersect it. A partial
// delivery — it never counts as a logical pass.
func (s *Sharded) ScanRangeContext(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error {
	if lo < 0 {
		lo = 0
	}
	if n := s.Len(); hi > n {
		hi = n
	}
	for i, sh := range s.shards {
		slo, shi := s.starts[i], s.starts[i+1]
		if slo < lo {
			slo = lo
		}
		if shi > hi {
			shi = hi
		}
		if slo >= shi {
			continue
		}
		if err := scanRangeOnce(ctx, sh, slo, shi, fn); err != nil {
			return err
		}
	}
	return nil
}

// ShardedView resolves db to the *Sharded a remote probe layout scatters
// over: db's own shard set when the scanner (unwrapped through any Unwrap
// chain, e.g. telemetry) already is a *Sharded, otherwise an n-way
// block-aligned view over it (ShardScanner). Mining either yields
// bit-identical probe sums — the view exists so single-file databases can
// join the same scatter protocol as native shard sets.
func ShardedView(db Scanner, n int) *Sharded {
	raw := db
	for {
		if rs, ok := raw.(*RetryScanner); ok {
			// The retry layer is a scanning concern; the remote probe path,
			// which never scans locally, sees through it. Local probe
			// scanning keeps its own retry wrapping — miner.ProbeValuer's
			// layout resolution deliberately stops here.
			raw = rs.Inner
			continue
		}
		u, ok := raw.(interface{ Unwrap() Scanner })
		if !ok {
			break
		}
		raw = u.Unwrap()
	}
	if sh, ok := raw.(*Sharded); ok {
		return sh
	}
	return ShardScanner(raw, n)
}

// RealBytes returns db's real-I/O byte counter when it has a trustworthy
// one: the store implements BytesRead and does not disclaim it via a
// ReportsBytes() false (a memory-backed Sharded). Consumers use the delta
// across a pass as the pass's real delivered bytes, falling back to
// estimation when ok is false.
func RealBytes(db Scanner) (n int64, ok bool) {
	br, has := db.(byteReader)
	if !has {
		return 0, false
	}
	if chk, hasChk := db.(interface{ ReportsBytes() bool }); hasChk && !chk.ReportsBytes() {
		return 0, false
	}
	return br.BytesRead(), true
}

// ShardSetPaths expands a comma-separated path list into a shard set's file
// list (a convenience for CLI -db flags; single paths pass through).
func ShardSetPaths(arg string) []string {
	parts := strings.Split(arg, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, filepath.Clean(p))
		}
	}
	return out
}
