package seqdb

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/pattern"
)

// Disk formats: a 12-byte header — a 4-byte magic and the sequence count
// n as a little-endian uint64 — followed by one record per sequence (see
// appendRecord).
//
// LSQ2 (current, checksummed):
//
//	magic   [4]byte  "LSQ2"
//	n       uint64
//	records with a CRC32 each, then
//	trailer [8]byte  diskTrailer — marks clean end-of-stream
//
// LSQ1 (legacy): magic "LSQ1", n, records without checksums.
//
// LSQZ (compressed): magic "LSQZ", n, then gzip over LSQ1-style records.
//
// Symbols are stored as their non-negative integer values; the eternal
// symbol never appears in raw data. Scans of every format verify a clean end
// after the declared sequence count; LSQ2 additionally detects any flipped
// byte or truncation inside a payload and reports the offending sequence,
// and LSQZ relies on gzip's own checksum, verified when the stream drains.
var (
	diskMagic   = [4]byte{'L', 'S', 'Q', '1'}
	diskMagicV2 = [4]byte{'L', 'S', 'Q', '2'}
	gzipMagic   = [4]byte{'L', 'S', 'Q', 'Z'}
	// diskTrailer ends an LSQ2 stream. Its first byte is an invalid uvarint
	// length (0), so a reader that misses the boundary errors immediately.
	diskTrailer = [8]byte{0x00, 'L', 'S', 'Q', '2', 'E', 'N', 'D'}
)

// MaxSequenceLen bounds a single sequence's length when reading the disk
// formats, so a corrupt length field cannot trigger an unbounded
// allocation.
const MaxSequenceLen = 1 << 24

// Writer streams sequences into one of the header-prefixed formats. Close
// appends the LSQ2 trailer or ends the gzip stream, patches the sequence
// count into the header, and fsyncs.
type Writer struct {
	f      *os.File
	zw     *gzip.Writer // LSQZ only: the compressor under bw
	bw     *bufio.Writer
	magic  [4]byte
	n      uint64
	enc    []byte
	closed bool
}

// CreateFile opens path for writing in the current (LSQ2) format and emits
// the header.
func CreateFile(path string) (*Writer, error) {
	return createFile(path, diskMagicV2)
}

// CreateLegacyFile opens path for writing in the legacy LSQ1 format (no
// checksums, no trailer) — for compatibility tooling and tests exercising
// the legacy read path.
func CreateLegacyFile(path string) (*Writer, error) {
	return createFile(path, diskMagic)
}

// CreateGzipFile opens path for writing in the compressed LSQZ format.
func CreateGzipFile(path string) (*Writer, error) {
	return createFile(path, gzipMagic)
}

// createFile creates path and writes the header for magic; the count is
// patched in by Close.
func createFile(path string, magic [4]byte) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("seqdb: create: %w", err)
	}
	var hdr [12]byte
	copy(hdr[:], magic[:])
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("seqdb: write header: %w", err)
	}
	w := &Writer{f: f, magic: magic}
	if magic == gzipMagic {
		w.zw = gzip.NewWriter(f)
		w.bw = bufio.NewWriterSize(w.zw, 1<<20)
	} else {
		w.bw = bufio.NewWriterSize(f, 1<<20)
	}
	return w, nil
}

// Write appends one sequence.
func (w *Writer) Write(seq []pattern.Symbol) error {
	if w.closed {
		return fmt.Errorf("seqdb: write after Close")
	}
	var err error
	if w.enc, err = appendRecord(w.enc[:0], seq, w.magic == diskMagicV2); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.enc); err != nil {
		return fmt.Errorf("seqdb: write: %w", err)
	}
	w.n++
	return nil
}

// Close appends the trailer (LSQ2), flushes, ends the gzip stream (LSQZ),
// patches the sequence count, fsyncs, and closes the file. A closed Writer
// rejects further Writes.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("seqdb: Close on closed writer")
	}
	w.closed = true
	if w.magic == diskMagicV2 {
		if _, err := w.bw.Write(diskTrailer[:]); err != nil {
			w.f.Close()
			return fmt.Errorf("seqdb: write trailer: %w", err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("seqdb: flush: %w", err)
	}
	if w.zw != nil {
		if err := w.zw.Close(); err != nil {
			w.f.Close()
			return fmt.Errorf("seqdb: gzip close: %w", err)
		}
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], w.n)
	if _, err := w.f.WriteAt(cnt[:], int64(len(w.magic))); err != nil {
		w.f.Close()
		return fmt.Errorf("seqdb: patch count: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("seqdb: sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("seqdb: close: %w", err)
	}
	return nil
}

// DiskDB is a disk-resident sequence database in any header-prefixed format.
// Every Scan streams the file from the start with a buffered reader (and
// decompresses it, for LSQZ); nothing beyond the current sequence and the
// readers' buffers is held in memory.
type DiskDB struct {
	path  string
	n     int
	magic [4]byte      // diskMagic, diskMagicV2 or gzipMagic
	scans atomic.Int64 // readable concurrently with a scan (progress UIs)
	bytes atomic.Int64
	// spare is the reader of the last pass to end, which the next pass
	// takes instead of allocating its own; a pass that finds none (the
	// first, or one beside a concurrent range scan) allocates one.
	spare atomic.Pointer[bufio.Reader]
}

// maxReadBuffer caps a pass's read buffer; a smaller file gets a buffer of
// its own size.
const maxReadBuffer = 1 << 20

// OpenFile validates the header of path and returns a DiskDB over it. The
// current LSQ2, the legacy LSQ1 and the compressed LSQZ formats are
// accepted.
func OpenFile(path string) (*DiskDB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seqdb: open: %w", err)
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("seqdb: read header: %w", err)
	}
	magic := [4]byte(hdr[:4])
	if magic != diskMagic && magic != diskMagicV2 && magic != gzipMagic {
		return nil, fmt.Errorf("seqdb: %s: bad magic %q", path, hdr[:4])
	}
	// A count no int holds would read as a negative Len.
	n := binary.LittleEndian.Uint64(hdr[4:])
	if n > math.MaxInt {
		return nil, corrupt(path, -1, fmt.Sprintf("sequence count %d out of range", n), nil)
	}
	return &DiskDB{path: path, n: int(n), magic: magic}, nil
}

// Len returns the number of sequences.
func (db *DiskDB) Len() int { return db.n }

// Scans returns the number of completed full passes. Safe to call
// concurrently with a running scan.
func (db *DiskDB) Scans() int { return int(db.scans.Load()) }

// ResetScans zeroes the pass counter.
func (db *DiskDB) ResetScans() { db.scans.Store(0) }

// Path returns the backing file path.
func (db *DiskDB) Path() string { return db.path }

// BytesRead returns the total bytes read from the backing file across all
// passes so far (header and buffered readahead included, measured before
// decompression) — the telemetry layer's real-I/O counter.
func (db *DiskDB) BytesRead() int64 { return db.bytes.Load() }

// countingReader reads the backing file, tallying the bytes it pulls into
// n. It marks every read error but io.EOF as a readError, so the record
// decoder reports a failed read as I/O, not as corruption; gzip passes the
// mark through, while its own data errors stay unmarked.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	if err != nil && err != io.EOF {
		err = &readError{err}
	}
	return n, err
}

// Scan implements Scanner by streaming the file.
func (db *DiskDB) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return db.ScanContext(nil, fn)
}

// reader returns a buffered reader over f that counts the bytes it pulls:
// the spare one reset to f, or a new one of min(maxReadBuffer, file size).
func (db *DiskDB) reader(f *os.File) (*bufio.Reader, error) {
	src := &countingReader{r: f, n: &db.bytes}
	if br := db.spare.Swap(nil); br != nil {
		br.Reset(src)
		return br, nil
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("seqdb: stat: %w", err)
	}
	return bufio.NewReaderSize(src, int(min(fi.Size(), maxReadBuffer))), nil
}

// ScanContext implements ContextScanner. Corruption — a checksum mismatch,
// invalid length, truncated payload, missing trailer (LSQ2), a gzip stream
// that does not end cleanly (LSQZ), or trailing garbage — is reported as a
// *CorruptError naming the offending sequence.
func (db *DiskDB) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return db.scanRange(ctx, 0, db.n, fn, true)
}

// ScanRangeContext implements RangeScanner: the formats have no index, so
// the prefix before lo is still decoded (and checksum-verified), but reading
// stops right after hi-1 — a shard over the file's head never pays for its
// tail. A range delivery is a partial pass and does not count as a scan.
func (db *DiskDB) ScanRangeContext(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error) error {
	if lo < 0 {
		lo = 0
	}
	if hi > db.n {
		hi = db.n
	}
	if lo >= hi {
		return nil
	}
	return db.scanRange(ctx, lo, hi, fn, false)
}

// scanRange streams sequences [0, hi), delivering [lo, hi). With full set it
// additionally verifies the end of the stream (the LSQ2 trailer, then EOF),
// and counts the completed pass.
func (db *DiskDB) scanRange(ctx context.Context, lo, hi int, fn func(id int, seq []pattern.Symbol) error, full bool) error {
	f, err := os.Open(db.path)
	if err != nil {
		return fmt.Errorf("seqdb: open: %w", err)
	}
	defer f.Close()
	br, err := db.reader(f)
	if err != nil {
		return err
	}
	defer db.spare.Store(br)
	if _, err := br.Discard(12); err != nil {
		return fmt.Errorf("seqdb: skip header: %w", err)
	}
	body := br
	if db.magic == gzipMagic {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("seqdb: gzip: %w", err)
		}
		defer zr.Close()
		body = bufio.NewReaderSize(zr, 1<<20)
	}
	rr := recordReader{br: body, path: db.path, checksum: db.magic == diskMagicV2}
	for i := 0; i < hi; i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		seq, _, err := decode(&rr, i)
		if err != nil {
			return err
		}
		if i >= lo {
			if err := fn(i, seq); err != nil {
				return err
			}
		}
	}
	if !full {
		return nil
	}
	if rr.checksum {
		tr, err := body.Peek(len(diskTrailer))
		if err != nil {
			return corrupt(db.path, -1, "missing end-of-stream trailer", err)
		}
		if [8]byte(tr) != diskTrailer {
			return corrupt(db.path, -1, fmt.Sprintf("bad end-of-stream trailer %q", tr), nil)
		}
		body.Discard(len(diskTrailer))
	}
	// Draining to EOF rejects trailing garbage and, for LSQZ, verifies the
	// gzip footer's checksum.
	switch _, err := body.ReadByte(); err {
	case io.EOF:
	case nil:
		return corrupt(db.path, -1, fmt.Sprintf("trailing garbage after %d sequences", db.n), nil)
	default:
		return corrupt(db.path, -1, "stream did not end cleanly", err)
	}
	db.scans.Add(1)
	return nil
}

// WriteFile persists an in-memory database to path in the LSQ2 format,
// crash-atomically: the data is written to a temp file in the destination
// directory, fsynced, and renamed over path, so a crash never leaves a
// partial or torn database behind.
func WriteFile(path string, db *MemDB) error {
	return writeAll(path, db, CreateFile)
}

// WriteGzipFile persists an in-memory database in the compressed LSQZ
// format, crash-atomically as WriteFile.
func WriteGzipFile(path string, db *MemDB) error {
	return writeAll(path, db, CreateGzipFile)
}

// writeAll writes every sequence of db through a Writer from create into a
// temp file that replaces path once it is complete and fsynced.
func writeAll(path string, db *MemDB, create func(string) (*Writer, error)) error {
	return checkpoint.AtomicWrite(path, func(tmp string) error {
		w, err := create(tmp)
		if err != nil {
			return err
		}
		for _, seq := range db.seqs { // direct iteration: persisting is not a mining scan
			if err := w.Write(seq); err != nil {
				w.f.Close()
				return err
			}
		}
		return w.Close()
	})
}

// OpenAuto opens a database of any format: a comma-separated list of paths
// as one shard set (OpenShardSet), otherwise one file, dispatched on its
// magic bytes (openOne). A single path is opened as given, uncleaned, so the
// path a checkpoint recorded for it still matches.
func OpenAuto(path string) (Scanner, error) {
	if paths := shardSetPaths(path); len(paths) > 1 {
		return OpenShardSet(paths)
	}
	return openOne(path)
}

// openOne opens one database file: an append log read-only (a mining job
// scans the intact prefix while the owning appender keeps writing), any
// other format through OpenFile.
func openOne(path string) (Scanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seqdb: open: %w", err)
	}
	var magic [4]byte
	_, err = io.ReadFull(f, magic[:])
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("seqdb: read magic: %w", err)
	}
	if magic == appendMagic {
		return OpenAppendRead(path)
	}
	return OpenFile(path)
}

// LoadFile reads an on-disk database fully into memory.
func LoadFile(path string) (*MemDB, error) {
	disk, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	mem := &MemDB{seqs: make([][]pattern.Symbol, 0, disk.Len())}
	err = disk.Scan(func(id int, seq []pattern.Symbol) error {
		cp := make([]pattern.Symbol, len(seq))
		copy(cp, seq)
		mem.seqs = append(mem.seqs, cp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mem, nil
}
