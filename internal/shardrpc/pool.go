package shardrpc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// RetryPolicy bounds a shard's probe attempts: full-jitter backoff starting
// at Base, doubling up to Cap, giving up after MaxAttempts (at which point
// the shard is reported lost). The same knobs parameterize
// seqdb.RetryScanner, so one flag set governs disk and network retries.
type RetryPolicy struct {
	MaxAttempts int           // default 4
	Base        time.Duration // default 10ms
	Cap         time.Duration // default 1s
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 4
	}
	if r.Base <= 0 {
		r.Base = 10 * time.Millisecond
	}
	if r.Cap <= 0 {
		r.Cap = time.Second
	}
	return r
}

// NodeStats is one node's cumulative probe accounting.
type NodeStats struct {
	Addr       string
	Probes     int64
	Failures   int64
	MeanMicros int64
	MaxMicros  int64
}

// Pool scatters shard probes over a set of nodes and keeps the gather alive
// through node failures. Scheduling: shard s prefers node s mod N (so a
// healthy cluster spreads a batch evenly and every node's OS page cache sees
// a stable working set), reassigns to the next healthy node when the
// preferred one is marked down, retries elsewhere with full-jitter backoff
// on failure, and optionally hedges slow probes on a second node. Because
// every node serves every shard from the same shard set and the kernel is
// deterministic, any schedule returns identical bytes; only latency varies.
//
// Safe for concurrent use by the scatter workers.
type Pool struct {
	// Clients are the nodes, in stable order.
	Clients []*Client
	// Retry bounds per-shard attempts (see RetryPolicy).
	Retry RetryPolicy
	// Timeout bounds each probe attempt (0 = no per-attempt deadline). An
	// expired attempt counts as a node failure and moves on.
	Timeout time.Duration
	// HedgeAfter, when > 0, launches the same probe on a second healthy node
	// if the first hasn't answered within this duration; the first success
	// wins and the loser is cancelled.
	HedgeAfter time.Duration
	// Jitter draws the backoff jitter (default: a private source; pass a
	// seeded one for reproducible schedules).
	Jitter *rand.Rand
	// Metrics, when non-nil, counts probes, retries, reassignments, hedges,
	// hedge wins, and lost shards, with per-probe latency.
	Metrics *telemetry.Metrics
	// Sleep overrides the backoff sleep (tests).
	Sleep func(ctx context.Context, d time.Duration) error

	mu       sync.Mutex
	down     []bool
	probes   []int64
	failures []int64
	sumUs    []int64
	maxUs    []int64
}

func (p *Pool) init() {
	if p.down == nil {
		n := len(p.Clients)
		p.down = make([]bool, n)
		p.probes = make([]int64, n)
		p.failures = make([]int64, n)
		p.sumUs = make([]int64, n)
		p.maxUs = make([]int64, n)
	}
}

// pickNode returns the node to try for shard: its preferred node when
// healthy, otherwise the next healthy node in ring order (a reassignment).
// With every node marked down, the marks are cleared — the only evidence
// left is stale, so the pool re-probes optimistically rather than giving up
// without a network round trip.
func (p *Pool) pickNode(shard int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.init()
	n := len(p.Clients)
	pref := shard % n
	if !p.down[pref] {
		return pref
	}
	for i := 1; i < n; i++ {
		if c := (pref + i) % n; !p.down[c] {
			p.Metrics.Add(telemetry.RemoteReassigned, 1)
			return c
		}
	}
	for i := range p.down {
		p.down[i] = false
	}
	return pref
}

// altNode returns a healthy node other than primary for hedging.
func (p *Pool) altNode(primary int) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.init()
	n := len(p.Clients)
	for i := 1; i < n; i++ {
		if c := (primary + i) % n; !p.down[c] {
			return c, true
		}
	}
	return 0, false
}

func (p *Pool) setDown(node int, down bool) {
	p.mu.Lock()
	p.init()
	p.down[node] = down
	p.mu.Unlock()
}

// Probe runs one shard probe to completion: attempts across the pool with
// reassignment and backoff until a node answers, the caller cancels, or the
// retry budget is spent — the last wrapping ErrShardLost so the pipeline can
// degrade gracefully instead of failing the run.
func (p *Pool) Probe(ctx context.Context, req *ProbeRequest) (*ProbeResponse, error) {
	if len(p.Clients) == 0 {
		return nil, fmt.Errorf("shardrpc: empty pool")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	policy := p.Retry.withDefaults()
	delay := policy.Base
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		node := p.pickNode(req.Shard)
		resp, err := p.probeOnce(ctx, node, req)
		if err == nil {
			p.setDown(node, false)
			return resp, nil
		}
		if ctx.Err() != nil {
			// The caller's context died (deadline or cancel): report that,
			// not the node, so Phase 3 budget expiry keeps its own
			// degradation path.
			return nil, ctx.Err()
		}
		if !IsNodeFailure(err) {
			return nil, err
		}
		p.setDown(node, true)
		lastErr = err
		if attempt >= policy.MaxAttempts {
			p.Metrics.Add(telemetry.RemoteShardsLost, 1)
			return nil, fmt.Errorf("shardrpc: shard %d unreachable after %d attempts: %w (last error: %v)",
				req.Shard, attempt, ErrShardLost, lastErr)
		}
		p.Metrics.Add(telemetry.RemoteRetries, 1)
		if err := p.sleep(ctx, p.jitter(delay)); err != nil {
			return nil, err
		}
		if delay *= 2; delay > policy.Cap {
			delay = policy.Cap
		}
	}
}

// probeOnce issues one attempt on node, hedging on an alternate node when
// configured and one is healthy. The first success wins; the loser's request
// is cancelled. When both fail, the primary's error is reported (the retry
// loop marks the primary down; the hedge node's health is judged by its own
// primaries).
func (p *Pool) probeOnce(ctx context.Context, node int, req *ProbeRequest) (*ProbeResponse, error) {
	actx := ctx
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	alt, ok := 0, false
	if p.HedgeAfter > 0 {
		alt, ok = p.altNode(node)
	}
	if !ok {
		return p.do(actx, node, req)
	}

	hctx, hcancel := context.WithCancel(actx)
	defer hcancel()
	type result struct {
		resp  *ProbeResponse
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	go func() {
		r, err := p.do(hctx, node, req)
		ch <- result{r, err, false}
	}()
	timer := time.NewTimer(p.HedgeAfter)
	defer timer.Stop()
	pending, hedged := 1, false
	var primaryErr, anyErr error
	for pending > 0 {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.hedge {
					p.Metrics.Add(telemetry.RemoteHedgesWon, 1)
				}
				return r.resp, nil
			}
			if !r.hedge {
				primaryErr = r.err
			}
			anyErr = r.err
			if !hedged {
				// The primary failed before the hedge deadline: fail fast so
				// the retry loop reassigns instead of waiting out the timer.
				return nil, r.err
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				p.Metrics.Add(telemetry.RemoteHedges, 1)
				go func() {
					r, err := p.do(hctx, alt, req)
					ch <- result{r, err, true}
				}()
			}
		}
	}
	// Both attempts failed; report the primary's error when it produced one
	// (the retry loop marks the primary down; the hedge node's health is
	// judged by its own primaries).
	if primaryErr != nil {
		return nil, primaryErr
	}
	return nil, anyErr
}

// do issues one request to one node, recording per-node stats and latency.
func (p *Pool) do(ctx context.Context, node int, req *ProbeRequest) (*ProbeResponse, error) {
	start := time.Now()
	resp, err := p.Clients[node].Probe(ctx, req)
	d := time.Since(start)
	p.mu.Lock()
	p.init()
	p.probes[node]++
	if err != nil {
		p.failures[node]++
	}
	us := d.Microseconds()
	p.sumUs[node] += us
	if us > p.maxUs[node] {
		p.maxUs[node] = us
	}
	p.mu.Unlock()
	p.Metrics.RemoteProbe(d, err == nil)
	return resp, err
}

func (p *Pool) jitter(delay time.Duration) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Jitter == nil {
		p.Jitter = rand.New(rand.NewSource(1))
	}
	return time.Duration(1 + p.Jitter.Int63n(int64(delay)))
}

func (p *Pool) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats returns per-node cumulative probe accounting, in Clients order.
func (p *Pool) Stats() []NodeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.init()
	out := make([]NodeStats, len(p.Clients))
	for i, c := range p.Clients {
		out[i] = NodeStats{
			Addr:      c.Addr(),
			Probes:    p.probes[i],
			Failures:  p.failures[i],
			MaxMicros: p.maxUs[i],
		}
		if p.probes[i] > 0 {
			out[i].MeanMicros = p.sumUs[i] / p.probes[i]
		}
	}
	return out
}
