package miner

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/telemetry"
)

// ProbeValuer is the Phase 3 probe valuer (Algorithms 4.3/4.4): each call
// counts a batch in one logical pass over db, folding per-probe-block (sums,
// count) partials from every shard of the store's layout in ascending block
// order. An unsharded store (or a RetryScanner over anything) is one shard
// read in one full pass through db, so its pass counter, checksum trailer
// check and per-attempt retry apply unchanged. A seqdb.Sharded with several
// shards is scanned up to workers shards at once (0 = up to GOMAXPROCS); with
// a remote pool, its nodes serve the shards of seqdb.ShardedView(db, nodes).
// On one store, workers > 1 goroutines match copied probe blocks while the
// pass reads on, and 0 or 1 match inline (-1 = GOMAXPROCS everywhere). m
// records what bypasses the caller's telemetry.Scanner wrapper: shard scans
// and the logical pass of a sharded or remote layout.
//
// Each block is summed in position order by one writer, so the values are
// bit-identical for every worker, shard and node count and differ from one
// running sum only by float reassociation. Averages divide by the sequences
// delivered, not db.Len(); an empty batch costs no pass; ctx (nil = never
// cancelled) is checked between sequences.
func ProbeValuer(ctx context.Context, db seqdb.Scanner, c compat.Source, workers int, remote *shardrpc.Pool, m *telemetry.Metrics) Valuer {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Local layouts see through telemetry wrappers but not a RetryScanner (no
	// Unwrap): a retried store keeps whole-pass retries as one shard.
	raw := db
	for u, ok := raw.(interface{ Unwrap() seqdb.Scanner }); ok; u, ok = raw.(interface{ Unwrap() seqdb.Scanner }) {
		raw = u.Unwrap()
	}
	sh, _ := raw.(*seqdb.Sharded)
	if remote != nil {
		sh = seqdb.ShardedView(db, len(remote.Clients))
	} else if sh != nil && sh.NumShards() < 2 {
		sh = nil
	}
	return func(ps []pattern.Pattern) ([]float64, error) {
		if len(ps) == 0 {
			return nil, nil
		}
		var parts []match.Partial
		var err error
		if remote != nil {
			parts, err = probeRemote(ctx, sh, remote, c, ps, m)
		} else {
			parts, err = probeLocal(ctx, db, sh, c, ps, workers, m)
		}
		if err != nil {
			return nil, err
		}
		sums, n := make([]float64, len(ps)), 0
		for _, part := range parts {
			if len(part.Sums) != len(ps) {
				return nil, fmt.Errorf("miner: probe block holds %d sums for a %d-pattern batch", len(part.Sums), len(ps))
			}
			for i, v := range part.Sums {
				sums[i] += v
			}
			n += part.N
		}
		return mean(sums, n), nil
	}
}

// MatchDBValuer is ProbeValuer with one inline worker.
func MatchDBValuer(db seqdb.Scanner, c compat.Source) Valuer {
	return ProbeValuer(nil, db, c, 1, nil, nil)
}

// ParallelMatchDBValuer is ProbeValuer with workers goroutines
// (-1 = GOMAXPROCS); its values equal MatchDBValuer's.
func ParallelMatchDBValuer(db seqdb.Scanner, c compat.Source, workers int) Valuer {
	return ProbeValuer(nil, db, c, workers, nil, nil)
}

// probeLocal compiles the batch once and returns the partials of db, or of
// the shards of sh when it is non-nil, in ascending block order.
func probeLocal(ctx context.Context, db seqdb.Scanner, sh *seqdb.Sharded, c compat.Source, ps []pattern.Pattern, workers int, m *telemetry.Metrics) ([]match.Partial, error) {
	set, err := match.CompileSoA(c, ps)
	if err != nil {
		return nil, err
	}
	if sh == nil {
		parts, _, err := scan(ctx, db, 0, seqdb.ProbeBlockSize(db.Len()), set, workers, nil)
		return parts, err
	}
	passBytes, passReal := seqdb.RealBytes(sh)
	parts, symbols, err := eachShard(sh, cmp.Or(workers, runtime.GOMAXPROCS(0)), func(s int) ([]match.Partial, int64, error) {
		return scan(ctx, sh.Shard(s), sh.ShardStart(s), sh.BlockSize(), set, 1, m)
	})
	if err != nil {
		return nil, err
	}
	if now, _ := seqdb.RealBytes(sh); passReal {
		m.ScanDone(now-passBytes, false)
	} else {
		m.ScanDone(4*symbols, true)
	}
	return parts, nil
}

// eachShard runs probe on every shard of sh, up to conc at once, and returns
// the first failure in shard order, or counts one logical pass on sh and
// returns the partials in shard order and the symbols the shards read.
func eachShard(sh *seqdb.Sharded, conc int, probe func(s int) ([]match.Partial, int64, error)) ([]match.Partial, int64, error) {
	n := sh.NumShards()
	parts, symbols, errs := make([][]match.Partial, n), make([]int64, n), make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < min(conc, n); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				parts[s], symbols[s], errs[s] = probe(s)
			}
		}()
	}
	for s := 0; s < n; s++ {
		next <- s
	}
	close(next)
	wg.Wait()
	var out []match.Partial
	var total int64
	for s := range parts {
		if errs[s] != nil {
			return nil, 0, errs[s]
		}
		out, total = append(out, parts[s]...), total+symbols[s]
	}
	sh.NotePass()
	return out, total, nil
}

// scan runs one pass over shard, whose first sequence sits at position
// start, and returns its block partials and symbol count. Every attempt
// starts fresh accumulators, so a retried pass never double counts. m (nil
// when the caller's telemetry wrapper sees the pass) records the shard scan.
func scan(ctx context.Context, shard seqdb.Scanner, start, block int, set *match.SoASet, workers int, m *telemetry.Metrics) ([]match.Partial, int64, error) {
	began := time.Now()
	startBytes, realBytes := seqdb.RealBytes(shard)
	var finish func() []match.Partial
	var seqs, symbols int64
	err := seqdb.ScanPassContext(ctx, shard, func() (func(id int, seq []pattern.Symbol) error, error) {
		if finish != nil {
			finish() // stop a failed attempt's workers
		}
		seqs, symbols = 0, 0
		b := set.NewBlocks(block, start)
		observe := b.Observe
		finish = b.Partials
		if workers > 1 {
			observe, finish = pipeline(set, block, workers)
		}
		return func(_ int, seq []pattern.Symbol) error {
			observe(seq)
			seqs, symbols = seqs+1, symbols+int64(len(seq))
			m.Sequence(len(seq))
			return nil
		}, nil
	})
	var parts []match.Partial
	if finish != nil {
		parts = finish()
	}
	if err != nil {
		return nil, 0, err
	}
	bytes := int64(-1)
	if now, _ := seqdb.RealBytes(shard); realBytes {
		bytes = now - startBytes
	}
	m.ShardScan(time.Since(began), seqs, bytes)
	return parts, symbols, nil
}

// A pipeline chunk is one run of the batch kernel, at most match.RunSeqs
// sequences and match.RunSymbols symbols (a longer sequence is a chunk of its
// own); the pool holds chunksPerWorker chunks per worker, however long the
// database: up to 1,024 sequences or 64 Ki symbols, 256 KiB of arena.
const chunksPerWorker = 16

type chunk struct {
	arena []pattern.Symbol
	ends  []int
}

// chunks keeps pipeline chunks across passes, so a pass draws its pool
// full-sized instead of growing every arena from zero.
var chunks = sync.Pool{New: func() any {
	return &chunk{
		arena: make([]pattern.Symbol, 0, match.RunSymbols),
		ends:  make([]int, 0, match.RunSeqs),
	}
}}

// pipeline matches probe blocks on workers goroutines while a pass that
// starts on a block boundary, as every shard does, reads on. observe copies
// each sequence into a pooled chunk, waiting for one if the pool is empty;
// every chunk of block k goes to worker k mod workers over that worker's FIFO
// queue, so each block has one writer summing it in position order, and the
// worker scores the chunk where it lies. finish waits for the workers, puts
// the chunks back in chunks and returns the partials in block order.
func pipeline(set *match.SoASet, size, workers int) (observe func([]pattern.Symbol), finish func() []match.Partial) {
	pool := make(chan *chunk, chunksPerWorker*workers)
	for i := 0; i < cap(pool); i++ {
		pool <- chunks.Get().(*chunk)
	}
	queues := make([]chan *chunk, workers)
	parts := make([][]match.Partial, workers) // worker w sums blocks w, w+workers, ...
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range queues {
		queues[w] = make(chan *chunk, cap(pool)) // never full: sends do not block
		go func(w int) {
			defer wg.Done()
			b := set.NewBlocks(size, 0) // the worker's blocks, each size long but the last
			for ch := range queues[w] {
				b.ObserveAll(ch.arena, ch.ends)
				ch.arena, ch.ends = ch.arena[:0], ch.ends[:0]
				pool <- ch
			}
			parts[w] = b.Partials()
		}(w)
	}
	var cur *chunk
	n := 0 // sequences observed
	observe = func(seq []pattern.Symbol) {
		if cur == nil || n%size == 0 || len(cur.ends) == match.RunSeqs || len(cur.arena)+len(seq) > match.RunSymbols {
			if cur != nil {
				queues[(n-1)/size%workers] <- cur
			}
			cur = <-pool
		}
		cur.arena = append(cur.arena, seq...)
		cur.ends = append(cur.ends, len(cur.arena))
		n++
	}
	finish = func() []match.Partial {
		if cur != nil {
			queues[(n-1)/size%workers] <- cur
		}
		for _, q := range queues {
			close(q)
		}
		wg.Wait()
		for i := 0; i < cap(pool); i++ {
			// An arena a long sequence grew past a run stays out of the pool.
			if ch := <-pool; cap(ch.arena) <= match.RunSymbols {
				chunks.Put(ch)
			}
		}
		out := make([]match.Partial, (n+size-1)/size)
		for k := range out {
			out[k] = parts[k%workers][k/workers]
		}
		return out
	}
	return observe, finish
}

// probeRemote sends every shard of sh to the pool at once. Nodes sum the
// same blocks with the same kernel and JSON round-trips float64 exactly, so
// remote partials equal local ones; a shard no node can serve fails with
// shardrpc.ErrShardLost.
func probeRemote(ctx context.Context, sh *seqdb.Sharded, pool *shardrpc.Pool, c compat.Source, ps []pattern.Pattern, m *telemetry.Metrics) ([]match.Partial, error) {
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	ctx = cmp.Or(ctx, context.Background())
	base := shardrpc.NewProbeRequest(c, ps, sh.Len(), sh.NumShards(), sh.BlockSize())
	parts, symbols, err := eachShard(sh, sh.NumShards(), func(s int) ([]match.Partial, int64, error) {
		start, req := time.Now(), *base
		req.Shard = s
		resp, err := pool.Probe(ctx, &req)
		if err != nil {
			return nil, 0, err
		}
		m.ShardScan(time.Since(start), resp.Sequences, -1)
		return resp.Blocks, resp.Symbols, nil
	})
	if err != nil {
		return nil, err
	}
	m.ScanDone(4*symbols, true) // read on the nodes: estimated
	return parts, nil
}
