package seqdb

import (
	"context"
	"errors"
	"fmt"
	"syscall"
)

// TransientError marks a scan failure as worth retrying: the same pass may
// succeed if re-run (an interrupted syscall, a busy device, a flaky NFS
// mount). RetryScanner re-runs passes that fail with a transient error;
// everything else is treated as permanent and surfaces immediately.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return "seqdb: transient: " + e.Err.Error() }

func (e *TransientError) Unwrap() error { return e.Err }

// MarkTransient wraps err so IsTransient reports true for it. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient classifies an error as transient (retrying the pass may
// succeed) or permanent. Explicitly marked errors are transient; corruption
// (CorruptError) and context cancellation are always permanent; a small set
// of retryable syscall errors (EINTR, EAGAIN, EBUSY, EIO, ETIMEDOUT) is
// recognized for raw I/O failures.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for _, errno := range []syscall.Errno{syscall.EINTR, syscall.EAGAIN, syscall.EBUSY, syscall.EIO, syscall.ETIMEDOUT} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// CorruptError reports on-disk damage detected during a scan: a checksum
// mismatch, an invalid length, a truncated payload, a missing trailer, or
// trailing garbage. Corruption is permanent — re-reading the same bytes
// cannot help — so IsTransient reports false for it.
type CorruptError struct {
	// Path is the backing file.
	Path string
	// Seq is the offending sequence index, or -1 for file-level damage
	// (header, trailer, trailing garbage).
	Seq int
	// Msg describes the damage.
	Msg string
	// Err is the underlying error, if any.
	Err error
}

func (e *CorruptError) Error() string {
	s := fmt.Sprintf("seqdb: %s: corrupt %s: %s", e.Path, place(e.Seq), e.Msg)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *CorruptError) Unwrap() error { return e.Err }

// place names sequence seq, or the file for -1.
func place(seq int) string {
	if seq < 0 {
		return "file"
	}
	return fmt.Sprintf("sequence %d", seq)
}

// readError marks an error the backing file's Read returned, as opposed to
// damage found in the bytes it did return (see countingReader).
type readError struct{ err error }

func (e *readError) Error() string { return e.err.Error() }

func (e *readError) Unwrap() error { return e.err }

// corrupt builds a CorruptError for damage found at sequence seq (-1 for
// the file). When err is a read error of the file itself, no damaged bytes
// were seen, so it returns an I/O error naming the same place instead:
// IsTransient then classifies the cause (an EIO is retried) rather than
// calling it corruption.
func corrupt(path string, seq int, msg string, err error) error {
	var re *readError
	if errors.As(err, &re) {
		return fmt.Errorf("seqdb: %s: read %s: %w", path, place(seq), err)
	}
	return &CorruptError{Path: path, Seq: seq, Msg: msg, Err: err}
}
