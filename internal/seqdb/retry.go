package seqdb

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/pattern"
)

// ScanStats counts a scanner's pass outcomes, surfaced through core.Result
// so long mining runs can report how rough the ride was.
type ScanStats struct {
	// Completed counts passes that finished cleanly.
	Completed int
	// Attempts counts pass attempts, including failed ones.
	Attempts int
	// Retries counts attempts re-run after a transient failure.
	Retries int
	// Transient and Permanent count the failures observed by class.
	Transient int
	Permanent int
}

// StatsReporter is implemented by scanners that track ScanStats
// (RetryScanner); core.Mine surfaces the stats in its Result when the
// database it was given implements this.
type StatsReporter interface {
	ScanStats() ScanStats
}

// RetryScanner wraps a Scanner and re-runs a pass that fails with a
// transient error, with capped exponential backoff between attempts. Scan
// counting is delegated to the wrapped scanner, which only counts completed
// passes — so a run that survives transient faults reports exactly the same
// scan count as a fault-free run.
//
// A retried pass restarts from sequence 0, so per-pass consumer state must
// be rebuilt per attempt: drive passes through ScanPass/ScanPassContext
// (RetryScanner implements PassScanner), which re-invokes the setup on every
// attempt. The plain Scan/ScanContext methods retry with the same callback
// and are only safe for replay-tolerant (stateless or self-resetting)
// callbacks.
type RetryScanner struct {
	// Inner is the wrapped scanner (required).
	Inner Scanner
	// MaxRetries bounds re-runs per pass (default 3; negative disables
	// retrying, classifying only).
	MaxRetries int
	// BaseDelay is the first backoff (default 10ms); it doubles per retry
	// up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep, when set, replaces the default backoff sleeper (injectable for
	// tests). The default honors ctx: a cancellation arriving mid-backoff
	// aborts the wait immediately and returns ctx.Err(). A custom Sleep is
	// called as-is, so cancellation is only observed after it returns.
	Sleep func(time.Duration)
	// Jitter, when set, applies full jitter to the backoff: each wait is
	// drawn uniformly from [1, delay] instead of sleeping the deterministic
	// capped-exponential delay, so N workers retrying a shared failing
	// store spread their re-runs out instead of hammering it in lockstep
	// (the AWS "full jitter" policy). The exponential schedule still drives
	// the upper bound, so the worst-case wait is unchanged. The generator
	// is used only from the scanning goroutine (scanners are not safe for
	// concurrent scans), so an unshared *rand.Rand needs no locking; seed
	// it for deterministic tests. Nil keeps the deterministic backoff.
	Jitter *rand.Rand
	// Classify reports whether an error is transient (default IsTransient).
	Classify func(error) bool

	stats ScanStats
}

// NewRetryScanner wraps inner with the default retry policy.
func NewRetryScanner(inner Scanner) *RetryScanner {
	return &RetryScanner{Inner: inner}
}

// Len returns the wrapped scanner's sequence count.
func (r *RetryScanner) Len() int { return r.Inner.Len() }

// Scans returns the wrapped scanner's completed-pass count.
func (r *RetryScanner) Scans() int { return r.Inner.Scans() }

// ResetScans zeroes the wrapped scanner's pass counter (retry stats are
// kept; they describe the scanner's whole life).
func (r *RetryScanner) ResetScans() { r.Inner.ResetScans() }

// ScanStats returns the retry/error counters accumulated so far.
func (r *RetryScanner) ScanStats() ScanStats { return r.stats }

// Scan implements Scanner. The callback must be replay-tolerant (a failed
// attempt is re-run from sequence 0); prefer ScanPass for stateful passes.
func (r *RetryScanner) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return r.ScanContext(nil, fn)
}

// ScanContext implements ContextScanner with the same replay caveat as Scan.
func (r *RetryScanner) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return r.ScanPassContext(ctx, func() (func(id int, seq []pattern.Symbol) error, error) {
		return fn, nil
	})
}

// ScanPassContext implements PassScanner: each attempt calls setup afresh,
// then runs one cancellable pass of the wrapped scanner; transient failures
// are retried with capped exponential backoff, everything else returns
// immediately.
func (r *RetryScanner) ScanPassContext(ctx context.Context, setup PassFunc) error {
	return r.retryPass(ctx, setup, func(fn func(id int, seq []pattern.Symbol) error) error {
		return ScanContext(ctx, r.Inner, fn)
	})
}

// ScanRangePassContext implements RangePassScanner: one logical pass over the
// id range [lo, hi) of the wrapped scanner under the same retry policy as
// ScanPassContext. The range is scanned natively when the wrapped scanner
// implements RangeScanner and by a filtered full pass otherwise; either way a
// transient failure re-runs the whole range with fresh consumer state.
func (r *RetryScanner) ScanRangePassContext(ctx context.Context, lo, hi int, setup PassFunc) error {
	return r.retryPass(ctx, setup, func(fn func(id int, seq []pattern.Symbol) error) error {
		return scanRangeOnce(ctx, r.Inner, lo, hi, fn)
	})
}

// retryPass is the shared attempt loop: setup fresh state, run one pass via
// run, classify failures, back off and retry transients.
func (r *RetryScanner) retryPass(ctx context.Context, setup PassFunc, run func(fn func(id int, seq []pattern.Symbol) error) error) error {
	maxRetries := r.MaxRetries
	if maxRetries == 0 {
		maxRetries = 3
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	base := r.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxDelay := r.MaxDelay
	if maxDelay <= 0 {
		maxDelay = time.Second
	}
	classify := r.Classify
	if classify == nil {
		classify = IsTransient
	}

	delay := base
	for attempt := 1; ; attempt++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		fn, err := setup()
		if err != nil {
			return err
		}
		r.stats.Attempts++
		err = run(fn)
		if err == nil {
			r.stats.Completed++
			return nil
		}
		if cerr := ctxErr(ctx); cerr != nil {
			// Cancellation is never retried, whatever shape it surfaced in.
			return err
		}
		if !classify(err) {
			r.stats.Permanent++
			return err
		}
		r.stats.Transient++
		if attempt > maxRetries {
			return fmt.Errorf("seqdb: pass failed after %d attempts: %w", attempt, err)
		}
		r.stats.Retries++
		wait := delay
		if r.Jitter != nil {
			wait = 1 + time.Duration(r.Jitter.Int63n(int64(delay)))
		}
		if r.Sleep != nil {
			r.Sleep(wait)
		} else if err := sleepContext(ctx, wait); err != nil {
			return err
		}
		delay *= 2
		if delay > maxDelay {
			delay = maxDelay
		}
	}
}

// Path returns the wrapped scanner's backing file path when it has one
// (DiskDB, AppendDB, Sharded), empty otherwise — so identity checks (e.g. a
// resumed run verifying it scans the same database) see through the retry
// layer.
func (r *RetryScanner) Path() string {
	if p, ok := r.Inner.(interface{ Path() string }); ok {
		return p.Path()
	}
	return ""
}

// sleepContext sleeps for d or until ctx is cancelled, whichever comes
// first, returning ctx.Err() in the latter case. A nil ctx sleeps plainly.
func sleepContext(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
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
