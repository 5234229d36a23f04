package telemetry

import (
	"context"

	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// ByteReporter is implemented by stores that can report real I/O bytes
// consumed so far (seqdb.DiskDB, seqdb.AppendDB). Stores without it get a
// 4-bytes-per-symbol estimate (the in-memory size of pattern.Symbol).
//
// A store may additionally implement ReportsBytes() bool to disclaim its
// counter at runtime (seqdb.Sharded over memory-backed shards always returns
// 0 real bytes); when it returns false the estimate path is used instead.
type ByteReporter interface {
	BytesRead() int64
}

// Scanner instruments an inner seqdb.Scanner: every delivered sequence and
// every completed pass is recorded into the Metrics under the pipeline phase
// current at delivery time. It forwards the pass-protocol and stats
// capabilities of the wrapped scanner (ContextScanner, PassScanner,
// StatsReporter), so retry semantics and scan accounting are unchanged —
// including that a retried attempt's re-delivered sequences are counted
// (telemetry reports traffic actually generated, not logical passes).
type Scanner struct {
	inner seqdb.Scanner
	m     *Metrics
}

// NewScanner wraps inner; a nil m yields a transparent wrapper.
func NewScanner(inner seqdb.Scanner, m *Metrics) *Scanner {
	return &Scanner{inner: inner, m: m}
}

// Unwrap returns the wrapped scanner.
func (s *Scanner) Unwrap() seqdb.Scanner { return s.inner }

// Len implements seqdb.Scanner.
func (s *Scanner) Len() int { return s.inner.Len() }

// Scans implements seqdb.Scanner.
func (s *Scanner) Scans() int { return s.inner.Scans() }

// ResetScans implements seqdb.Scanner.
func (s *Scanner) ResetScans() { s.inner.ResetScans() }

// ScanStats implements seqdb.StatsReporter, forwarding the inner scanner's
// counters (zero when the inner scanner does not track them).
func (s *Scanner) ScanStats() seqdb.ScanStats {
	if sr, ok := s.inner.(seqdb.StatsReporter); ok {
		return sr.ScanStats()
	}
	return seqdb.ScanStats{}
}

// passMeter snapshots byte/symbol progress so one pass's I/O can be
// attributed at its end.
type passMeter struct {
	br         ByteReporter
	startBytes int64
	symbols    int64
}

func (s *Scanner) newPassMeter() *passMeter {
	pm := &passMeter{}
	if br, ok := s.inner.(ByteReporter); ok {
		if dis, ok := s.inner.(interface{ ReportsBytes() bool }); !ok || dis.ReportsBytes() {
			pm.br = br
			pm.startBytes = br.BytesRead()
		}
	}
	return pm
}

// done records a completed pass: real bytes when the store reports them,
// otherwise 4 bytes per delivered symbol.
func (pm *passMeter) done(m *Metrics) {
	if pm.br != nil {
		m.ScanDone(pm.br.BytesRead()-pm.startBytes, false)
		return
	}
	m.ScanDone(4*pm.symbols, true)
}

// count wraps fn with sequence accounting.
func (s *Scanner) count(pm *passMeter, fn func(id int, seq []pattern.Symbol) error) func(id int, seq []pattern.Symbol) error {
	return func(id int, seq []pattern.Symbol) error {
		s.m.Sequence(len(seq))
		pm.symbols += int64(len(seq))
		return fn(id, seq)
	}
}

// Scan implements seqdb.Scanner.
func (s *Scanner) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return s.ScanContext(nil, fn)
}

// ScanContext implements seqdb.ContextScanner.
func (s *Scanner) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	pm := s.newPassMeter()
	err := seqdb.ScanContext(ctx, s.inner, s.count(pm, fn))
	if err == nil {
		pm.done(s.m)
	}
	return err
}

// ScanPassContext implements seqdb.PassScanner: the setup is re-invoked per
// attempt by a retrying inner scanner, with counting wrapped around each
// attempt's callback.
func (s *Scanner) ScanPassContext(ctx context.Context, setup seqdb.PassFunc) error {
	pm := s.newPassMeter()
	err := seqdb.ScanPassContext(ctx, s.inner, func() (func(id int, seq []pattern.Symbol) error, error) {
		fn, err := setup()
		if err != nil {
			return nil, err
		}
		return s.count(pm, fn), nil
	})
	if err == nil {
		pm.done(s.m)
	}
	return err
}
