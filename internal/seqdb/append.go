package seqdb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/pattern"
)

// Append-only log format LSA1: the streaming store behind lspmine -follow
// and the lspserve append endpoint.
//
//	magic    [4]byte  "LSA1"
//	reserved [8]byte  zero
//	records with a CRC32 each, exactly as in LSQ2 (appendRecord)
//
// Unlike LSQ2 there is no sequence count to patch and no trailer: the log is
// closed by nothing, so a crash can only leave a torn final record, which
// recovery detects by its checksum (or truncated payload) and drops. The
// live window's logical head — for sliding-window expiry — is persisted in a
// sidecar file (path + ".head"), written and fsynced through
// checkpoint.AtomicWriteFile, instead of mutating the log.
var appendMagic = [4]byte{'L', 'S', 'A', '1'}

// headSuffix names the sidecar carrying the logical head of an expired log.
const headSuffix = ".head"

// AppendDB is an append-only, crash-safe sequence log. Sequences get stable
// absolute ids (0-based append order); sliding-window expiry advances a
// logical head so scans deliver only the live window [Start, Total) with
// window-relative ids 0..Len()-1. One read-write handle may append while
// other (read-only) handles scan the prefix they observed at open.
type AppendDB struct {
	path      string
	f         *os.File // nil when read-only
	mu        sync.Mutex
	enc       []byte
	offsets   []int64 // offsets[i] = file offset of record i; offsets[total] = end
	start     int     // logical head: absolute id of the oldest live sequence
	scans     atomic.Int64
	bytes     atomic.Int64
	recovered int64 // bytes of torn/garbage tail dropped at open
}

// CreateAppend creates a fresh append log at path (failing if one exists).
func CreateAppend(path string) (*AppendDB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seqdb: create append log: %w", err)
	}
	var hdr [12]byte
	copy(hdr[:], appendMagic[:])
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("seqdb: write append header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("seqdb: sync append header: %w", err)
	}
	return &AppendDB{path: path, f: f, offsets: []int64{12}}, nil
}

// OpenAppend opens path for appending, creating it when absent. Recovery
// scans the log to the last intact record and truncates anything after it —
// under the append discipline that tail can only be a torn final record from
// a crash mid-append (TruncatedBytes reports how much was dropped).
func OpenAppend(path string) (*AppendDB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seqdb: open append log: %w", err)
	}
	db, err := recoverAppend(path, f, true)
	if err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

// OpenAppendRead opens path read-only: the torn-tail rule still applies (the
// scanable prefix ends at the last intact record) but the file is left
// untouched, so a reader can mine a log another process is appending to.
// Records appended after the open become visible through Refresh (which
// ScanSince performs implicitly).
func OpenAppendRead(path string) (*AppendDB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seqdb: open append log: %w", err)
	}
	db, err := recoverAppend(path, f, false)
	f.Close() // scans reopen per pass, like DiskDB
	if err != nil {
		return nil, err
	}
	db.f = nil
	return db, nil
}

// recoverAppend validates the header, indexes every intact record, and (in
// read-write mode) truncates the torn tail. Only EOF-shaped decode failures
// and checksum mismatches end the prefix; a real I/O error is reported.
func recoverAppend(path string, f *os.File, rw bool) (*AppendDB, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("seqdb: %s: %w", path, err)
	}
	var hdr [12]byte
	copy(hdr[:], appendMagic[:])
	if size < 12 {
		if !rw {
			return nil, fmt.Errorf("seqdb: %s: truncated append header", path)
		}
		// A crash mid-create can leave a short header; any prefix of the
		// 12-byte header holds no records, so rewriting it loses nothing.
		var got [12]byte
		if _, err := f.ReadAt(got[:size], 0); err != nil && err != io.EOF {
			return nil, fmt.Errorf("seqdb: %s: %w", path, err)
		}
		if string(got[:size]) != string(hdr[:size]) {
			return nil, fmt.Errorf("seqdb: %s: not an append log", path)
		}
		if err := f.Truncate(0); err != nil {
			return nil, fmt.Errorf("seqdb: %s: %w", path, err)
		}
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return nil, fmt.Errorf("seqdb: %s: write append header: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("seqdb: %s: %w", path, err)
		}
		return &AppendDB{path: path, f: f, offsets: []int64{12}}, nil
	}
	var got [12]byte
	if _, err := f.ReadAt(got[:], 0); err != nil {
		return nil, fmt.Errorf("seqdb: %s: read header: %w", path, err)
	}
	if got != hdr {
		return nil, fmt.Errorf("seqdb: %s: bad append magic %q", path, got[:4])
	}

	offsets, err := indexRecords(path, f, []int64{12}, size)
	if err != nil {
		return nil, err
	}
	end := offsets[len(offsets)-1]
	db := &AppendDB{path: path, offsets: offsets, recovered: size - end}
	if rw {
		db.f = f
		if db.recovered > 0 {
			if err := f.Truncate(end); err != nil {
				return nil, fmt.Errorf("seqdb: %s: truncate torn tail: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				return nil, fmt.Errorf("seqdb: %s: %w", path, err)
			}
		}
	}
	start, err := readHead(path)
	if err != nil {
		return nil, err
	}
	if start > len(offsets)-1 {
		start = len(offsets) - 1
	}
	db.start = start
	return db, nil
}

// indexRecords decodes the records in f from the last offset in offsets
// up to size, appending each intact record's end offset. A torn tail ends
// the index; any other failure is returned. Its reads are not scan
// traffic, so it tallies them into a counter of its own.
func indexRecords(path string, f *os.File, offsets []int64, size int64) ([]int64, error) {
	end := offsets[len(offsets)-1]
	src := &countingReader{r: io.NewSectionReader(f, end, size-end), n: new(atomic.Int64)}
	rr := recordReader{br: bufio.NewReaderSize(src, 1<<20), path: path, checksum: true}
	for end < size {
		_, n, err := rr.next(len(offsets) - 1)
		if err != nil {
			if isTornTail(err) {
				break
			}
			return nil, err
		}
		end += int64(n)
		offsets = append(offsets, end)
	}
	return offsets, nil
}

// readHead loads the sidecar's logical head (0 when no sidecar exists).
func readHead(path string) (int, error) {
	b, err := os.ReadFile(path + headSuffix)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("seqdb: read head sidecar: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("seqdb: %s%s: invalid head %q", path, headSuffix, b)
	}
	return n, nil
}

// Append adds one sequence to the log and returns its absolute id. The
// record is written in one syscall but not fsynced; call Sync to make a
// batch durable.
func (db *AppendDB) Append(seq []pattern.Symbol) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return 0, fmt.Errorf("seqdb: append to read-only log %s", db.path)
	}
	var err error
	if db.enc, err = appendRecord(db.enc[:0], seq, true); err != nil {
		return 0, err
	}
	end := db.offsets[len(db.offsets)-1]
	if _, err := db.f.WriteAt(db.enc, end); err != nil {
		return 0, fmt.Errorf("seqdb: append: %w", err)
	}
	db.offsets = append(db.offsets, end+int64(len(db.enc)))
	return len(db.offsets) - 2, nil
}

// Sync fsyncs appended records to stable storage.
func (db *AppendDB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return nil
	}
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("seqdb: sync: %w", err)
	}
	return nil
}

// Close closes the write handle (a no-op for read-only logs).
func (db *AppendDB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return nil
	}
	f := db.f
	db.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("seqdb: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("seqdb: close: %w", err)
	}
	return nil
}

// ExpireBefore advances the logical head to absolute id abs: sequences below
// it leave the live window. The head is persisted in the sidecar, fsynced
// and renamed into place, before the call returns and never moves backward.
func (db *AppendDB) ExpireBefore(abs int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return fmt.Errorf("seqdb: expire on read-only log %s", db.path)
	}
	if abs <= db.start {
		return nil
	}
	if total := len(db.offsets) - 1; abs > total {
		abs = total
	}
	if err := checkpoint.AtomicWriteFile(db.path+headSuffix, []byte(strconv.Itoa(abs)+"\n"), 0o644); err != nil {
		return fmt.Errorf("seqdb: persist head: %w", err)
	}
	db.start = abs
	return nil
}

// Total returns the number of sequences ever appended (absolute id space).
func (db *AppendDB) Total() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.offsets) - 1
}

// Start returns the absolute id of the oldest live sequence.
func (db *AppendDB) Start() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.start
}

// Len returns the live window's size — the Scanner-visible sequence count.
func (db *AppendDB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.offsets) - 1 - db.start
}

// TruncatedBytes reports how many bytes of torn or trailing garbage the
// opening recovery dropped (or, read-only, ignored).
func (db *AppendDB) TruncatedBytes() int64 { return db.recovered }

// Path returns the backing file path.
func (db *AppendDB) Path() string { return db.path }

// BytesRead returns total bytes read across scans (telemetry).
func (db *AppendDB) BytesRead() int64 { return db.bytes.Load() }

// Scans returns the number of completed full passes over the live window.
func (db *AppendDB) Scans() int { return int(db.scans.Load()) }

// ResetScans zeroes the pass counter.
func (db *AppendDB) ResetScans() { db.scans.Store(0) }

// Scan implements Scanner over the live window (ids 0..Len()-1).
func (db *AppendDB) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return db.ScanContext(nil, fn)
}

// ScanContext implements ContextScanner over the live window. The window is
// snapshotted at the start of the pass, so records appended mid-scan are not
// delivered (they belong to the next pass).
func (db *AppendDB) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	db.mu.Lock()
	lo, hi := db.start, len(db.offsets)-1
	db.mu.Unlock()
	if err := db.deliver(ctx, lo, hi, func(abs int, seq []pattern.Symbol) error {
		return fn(abs-lo, seq)
	}); err != nil {
		return err
	}
	db.scans.Add(1)
	return nil
}

// ScanRangeContext implements RangeScanner over window-relative ids [lo, hi).
// A range delivery is a partial pass and does not count as a scan.
func (db *AppendDB) ScanRangeContext(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error {
	db.mu.Lock()
	start, total := db.start, len(db.offsets)-1
	db.mu.Unlock()
	if lo < 0 {
		lo = 0
	}
	if hi > total-start {
		hi = total - start
	}
	if lo >= hi {
		return nil
	}
	return db.deliver(ctx, start+lo, start+hi, func(abs int, seq []pattern.Symbol) error {
		return fn(abs-start, seq)
	})
}

// Refresh re-indexes records appended to the file by another handle since
// this read-only handle was opened (or last refreshed): the tail beyond the
// last indexed record is scanned to the last intact record — a torn record
// mid-write by the live appender simply ends this refresh and is picked up
// whole by the next one — and the logical head is re-read from the sidecar
// (never moving backward). On a read-write handle Refresh is a no-op: the
// writer's own index is authoritative. ScanSince refreshes implicitly, so a
// tailing reader follows a live writer with no extra calls.
func (db *AppendDB) Refresh() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.refreshLocked()
}

func (db *AppendDB) refreshLocked() error {
	if db.f != nil {
		return nil
	}
	f, err := os.Open(db.path)
	if err != nil {
		return fmt.Errorf("seqdb: refresh: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("seqdb: refresh: %w", err)
	}
	if size > db.offsets[len(db.offsets)-1] {
		if db.offsets, err = indexRecords(db.path, f, db.offsets, size); err != nil {
			return err
		}
	}
	start, err := readHead(db.path)
	if err != nil {
		return err
	}
	if total := len(db.offsets) - 1; start > total {
		start = total
	}
	if start > db.start {
		db.start = start
	}
	return nil
}

// ScanSince delivers every sequence with absolute id >= cursor that is still
// live, in append order, with its absolute id — the tail-scan API a
// streaming consumer uses to pick up exactly the records appended since its
// last batch. It returns the cursor for the next call (the end of this
// pass's snapshot). Read-only handles refresh their index first, so the tail
// scan follows a live writer. Tail deliveries are partial passes and never
// count as scans.
func (db *AppendDB) ScanSince(ctx context.Context, cursor int, fn func(abs int, seq []pattern.Symbol) error) (int, error) {
	db.mu.Lock()
	if err := db.refreshLocked(); err != nil {
		db.mu.Unlock()
		return cursor, err
	}
	lo, hi := db.start, len(db.offsets)-1
	db.mu.Unlock()
	if cursor > lo {
		lo = cursor
	}
	if err := db.deliver(ctx, lo, hi, fn); err != nil {
		return cursor, err
	}
	return hi, nil
}

// deliver streams absolute records [lo, hi) from the file. Each pass opens
// its own handle, so concurrent deliveries (and one appender) never disturb
// each other.
func (db *AppendDB) deliver(ctx context.Context, lo, hi int, fn func(abs int, seq []pattern.Symbol) error) error {
	if lo >= hi {
		return nil
	}
	f, err := os.Open(db.path)
	if err != nil {
		return fmt.Errorf("seqdb: open: %w", err)
	}
	defer f.Close()
	db.mu.Lock()
	from, to := db.offsets[lo], db.offsets[hi]
	db.mu.Unlock()
	br := bufio.NewReaderSize(&countingReader{r: io.NewSectionReader(f, from, to-from), n: &db.bytes}, 1<<20)
	rr := recordReader{br: br, path: db.path, checksum: true}
	for i := lo; i < hi; i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		seq, _, err := rr.next(i)
		if err != nil {
			return err
		}
		if err := fn(i, seq); err != nil {
			return err
		}
	}
	return nil
}
