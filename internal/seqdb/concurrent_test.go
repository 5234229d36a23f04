package seqdb

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/pattern"
)

// TestScansConcurrentReaders scans each store while other goroutines hammer
// Scans() and ResetScans() — the progress-UI access pattern. Run with -race:
// the counters must be data-race-free even though full scans themselves stay
// single-threaded.
func TestScansConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "db.lsq")
	if err := WriteFile(plain, sampleDB()); err != nil {
		t.Fatal(err)
	}
	packed := filepath.Join(dir, "db.lsq.gz")
	if err := WriteGzipFile(packed, sampleDB()); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := OpenFile(packed)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]Scanner{
		"mem":  sampleDB(),
		"disk": disk,
		"gzip": gz,
	}
	for name, db := range stores {
		t.Run(name, func(t *testing.T) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(reset bool) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if reset {
							db.ResetScans()
						} else if db.Scans() < 0 {
							t.Error("negative scan count")
						}
					}
				}(i == 3)
			}
			for pass := 0; pass < 50; pass++ {
				err := db.Scan(func(id int, seq []pattern.Symbol) error { return nil })
				if err != nil {
					t.Errorf("pass %d: %v", pass, err)
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// alwaysFail is a Scanner whose every pass dies with the same error.
type alwaysFail struct {
	err error
}

func (a *alwaysFail) Scan(func(id int, seq []pattern.Symbol) error) error { return a.err }
func (a *alwaysFail) Len() int                                            { return 1 }
func (a *alwaysFail) Scans() int                                          { return 0 }
func (a *alwaysFail) ResetScans()                                         {}

// TestRetryBackoffCancellation cancels a RetryScanner mid-backoff: the
// default sleeper must abort the wait promptly and surface ctx.Err(), not
// sit out the full delay.
func TestRetryBackoffCancellation(t *testing.T) {
	r := &RetryScanner{
		Inner:      &alwaysFail{err: errors.New("flaky pass")},
		MaxRetries: 3,
		BaseDelay:  time.Minute, // far beyond the test's patience
		Classify:   func(error) bool { return true },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- r.ScanPassContext(ctx, func() (func(id int, seq []pattern.Symbol) error, error) {
			return func(id int, seq []pattern.Symbol) error { return nil }, nil
		})
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the backoff start
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("cancellation took %v to land — backoff not interruptible", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation never interrupted the backoff")
	}
}

// TestRetryScannerPath verifies identity passthrough: a RetryScanner over a
// disk store exposes its backing path, and over an in-memory store exposes
// none.
func TestRetryScannerPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.lsq")
	if err := WriteFile(path, sampleDB()); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := NewRetryScanner(disk).Path(); got != path {
		t.Errorf("Path() = %q, want %q", got, path)
	}
	if got := NewRetryScanner(sampleDB()).Path(); got != "" {
		t.Errorf("Path() over MemDB = %q, want empty", got)
	}
}
