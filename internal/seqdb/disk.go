package seqdb

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/pattern"
)

// Disk formats: a fixed header followed by varint-encoded sequences.
//
// LSQ2 (current, checksummed):
//
//	magic   [4]byte  "LSQ2"
//	n       uint64   number of sequences (little endian)
//	per sequence: uvarint length, then length uvarint symbols,
//	              then crc32 [4]byte (little endian) — CRC32-IEEE over the
//	              sequence's encoded bytes (length varint + symbol varints)
//	trailer [8]byte  diskTrailer — marks clean end-of-stream
//
// LSQ1 (legacy, read-only):
//
//	magic   [4]byte  "LSQ1"
//	n       uint64   number of sequences (little endian)
//	per sequence: uvarint length, then length uvarint symbols
//
// Symbols are stored as their non-negative integer values; the eternal
// symbol never appears in raw data. Scans of both versions verify clean EOF
// after the declared sequence count; LSQ2 additionally detects any flipped
// byte or truncation inside a payload and reports the offending sequence.
var (
	diskMagic   = [4]byte{'L', 'S', 'Q', '1'}
	diskMagicV2 = [4]byte{'L', 'S', 'Q', '2'}
	// diskTrailer ends an LSQ2 stream. Its first byte is an invalid uvarint
	// length (0), so a reader that misses the boundary errors immediately.
	diskTrailer = [8]byte{0x00, 'L', 'S', 'Q', '2', 'E', 'N', 'D'}
)

// MaxSequenceLen bounds a single sequence's length when reading the disk
// formats, so a corrupt length field cannot trigger an unbounded
// allocation.
const MaxSequenceLen = 1 << 24

// Writer streams sequences into the on-disk format. Close appends the
// trailer, patches the sequence count into the header, and fsyncs.
type Writer struct {
	f      *os.File
	bw     *bufio.Writer
	n      uint64
	enc    []byte
	legacy bool
	closed bool
}

// CreateFile opens path for writing in the current (LSQ2) format and emits
// the header.
func CreateFile(path string) (*Writer, error) {
	return createFile(path, false)
}

// CreateLegacyFile opens path for writing in the legacy LSQ1 format (no
// checksums, no trailer) — for compatibility tooling and tests exercising
// the legacy read path.
func CreateLegacyFile(path string) (*Writer, error) {
	return createFile(path, true)
}

func createFile(path string, legacy bool) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("seqdb: create: %w", err)
	}
	w, err := newWriter(f, legacy)
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// newWriter emits the header onto an already-open file.
func newWriter(f *os.File, legacy bool) (*Writer, error) {
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<20), legacy: legacy}
	magic := diskMagicV2
	if legacy {
		magic = diskMagic
	}
	if _, err := w.bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("seqdb: write header: %w", err)
	}
	var zero [8]byte
	if _, err := w.bw.Write(zero[:]); err != nil {
		return nil, fmt.Errorf("seqdb: write header: %w", err)
	}
	return w, nil
}

// Write appends one sequence.
func (w *Writer) Write(seq []pattern.Symbol) error {
	if w.closed {
		return fmt.Errorf("seqdb: write after Close")
	}
	if len(seq) == 0 {
		return fmt.Errorf("seqdb: empty sequence")
	}
	w.enc = binary.AppendUvarint(w.enc[:0], uint64(len(seq)))
	for _, d := range seq {
		if d.IsEternal() {
			return fmt.Errorf("seqdb: sequence contains the eternal symbol")
		}
		w.enc = binary.AppendUvarint(w.enc, uint64(d))
	}
	if _, err := w.bw.Write(w.enc); err != nil {
		return fmt.Errorf("seqdb: write: %w", err)
	}
	if !w.legacy {
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.enc))
		if _, err := w.bw.Write(crc[:]); err != nil {
			return fmt.Errorf("seqdb: write: %w", err)
		}
	}
	w.n++
	return nil
}

// Close appends the trailer (LSQ2), flushes, patches the sequence count,
// fsyncs, and closes the file. A closed Writer rejects further Writes.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("seqdb: Close on closed writer")
	}
	w.closed = true
	if !w.legacy {
		if _, err := w.bw.Write(diskTrailer[:]); err != nil {
			w.f.Close()
			return fmt.Errorf("seqdb: write trailer: %w", err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("seqdb: flush: %w", err)
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], w.n)
	if _, err := w.f.WriteAt(cnt[:], int64(len(diskMagic))); err != nil {
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

// DiskDB is a disk-resident sequence database. Every Scan streams the file
// from the start with a buffered reader; nothing beyond the current sequence
// and that reader's buffer is held in memory.
type DiskDB struct {
	path    string
	n       int
	scans   atomic.Int64 // readable concurrently with a scan (progress UIs)
	version int          // 1 = LSQ1 (legacy), 2 = LSQ2 (checksummed)
	bytes   atomic.Int64
	// spare is the reader of the last pass to end, which the next pass
	// takes instead of allocating its own; a pass that finds none (the
	// first, or one beside a concurrent range scan) allocates one.
	spare atomic.Pointer[bufio.Reader]
}

// maxReadBuffer caps a pass's read buffer; a smaller file gets a buffer of
// its own size.
const maxReadBuffer = 1 << 20

// OpenFile validates the header of path and returns a DiskDB over it. Both
// the current LSQ2 and the legacy LSQ1 formats are accepted.
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
	version := 0
	switch [4]byte(hdr[:4]) {
	case diskMagic:
		version = 1
	case diskMagicV2:
		version = 2
	default:
		return nil, fmt.Errorf("seqdb: %s: bad magic %q", path, hdr[:4])
	}
	n, err := headerCount(path, hdr[4:])
	if err != nil {
		return nil, err
	}
	return &DiskDB{path: path, n: n, version: version}, nil
}

// headerCount decodes a header's little-endian sequence count, rejecting a
// count no int holds (it would read as a negative Len).
func headerCount(path string, b []byte) (int, error) {
	n := binary.LittleEndian.Uint64(b)
	if n > math.MaxInt {
		return 0, corrupt(path, -1, fmt.Sprintf("sequence count %d out of range", n), nil)
	}
	return int(n), nil
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
// passes so far (header and buffered readahead included) — the telemetry
// layer's real-I/O counter.
func (db *DiskDB) BytesRead() int64 { return db.bytes.Load() }

// countingReader tallies bytes pulled from the underlying reader.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Version returns the on-disk format version (1 = legacy LSQ1, 2 = LSQ2).
func (db *DiskDB) Version() int { return db.version }

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

// crcReader records every byte it yields so the consumed encoding of a
// sequence can be checksummed without re-encoding.
type crcReader struct {
	br  *bufio.Reader
	buf []byte
}

func (r *crcReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.buf = append(r.buf, b)
	}
	return b, err
}

// ScanContext implements ContextScanner. Corruption — a checksum mismatch,
// invalid length, truncated payload (LSQ2), missing trailer, or trailing
// garbage — is reported as a *CorruptError naming the offending sequence.
func (db *DiskDB) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return db.scanRange(ctx, 0, db.n, fn, true)
}

// ScanRangeContext implements RangeScanner: the format has no index, so the
// prefix before lo is still decoded (and checksum-verified), but reading
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
// additionally verifies the end-of-stream trailer, rejects trailing garbage,
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
	checksummed := db.version >= 2
	rr := &crcReader{br: br}
	var seq []pattern.Symbol
	var stored [4]byte // declared once: io.ReadFull moves it to the heap
	for i := 0; i < hi; i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		rr.buf = rr.buf[:0]
		l, err := binary.ReadUvarint(rr)
		if err != nil {
			return corrupt(db.path, i, "truncated length", err)
		}
		if l == 0 || l > MaxSequenceLen {
			return corrupt(db.path, i, fmt.Sprintf("invalid length %d", l), nil)
		}
		if cap(seq) < int(l) {
			seq = make([]pattern.Symbol, l)
		}
		seq = seq[:l]
		for j := range seq {
			v, err := binary.ReadUvarint(rr)
			if err != nil {
				return corrupt(db.path, i, fmt.Sprintf("truncated at symbol %d", j), err)
			}
			seq[j] = pattern.Symbol(v)
		}
		if checksummed {
			if _, err := io.ReadFull(br, stored[:]); err != nil {
				return corrupt(db.path, i, "truncated checksum", err)
			}
			if got, want := crc32.ChecksumIEEE(rr.buf), binary.LittleEndian.Uint32(stored[:]); got != want {
				return corrupt(db.path, i, fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want), nil)
			}
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
	if checksummed {
		var tr [8]byte
		if _, err := io.ReadFull(br, tr[:]); err != nil {
			return corrupt(db.path, -1, "missing end-of-stream trailer", err)
		}
		if tr != diskTrailer {
			return corrupt(db.path, -1, fmt.Sprintf("bad end-of-stream trailer %q", tr[:]), nil)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return corrupt(db.path, -1, fmt.Sprintf("trailing garbage after %d sequences", db.n), nil)
	}
	db.scans.Add(1)
	return nil
}

// WriteFile persists an in-memory database to path in the LSQ2 format,
// crash-atomically: the data is written to a temp file in the destination
// directory, fsynced, and renamed over path, so a crash never leaves a
// partial or torn database behind.
func WriteFile(path string, db *MemDB) error {
	return atomicWrite(path, func(tmp string) error {
		w, err := CreateFile(tmp)
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

// atomicWrite runs write against a temp file in path's directory, then
// renames it over path. The temp file is removed on any failure.
func atomicWrite(path string, write func(tmp string) error) error {
	dir := filepath.Dir(path)
	tmpf, err := os.CreateTemp(dir, ".lsqtmp-*")
	if err != nil {
		return fmt.Errorf("seqdb: temp file: %w", err)
	}
	tmp := tmpf.Name()
	tmpf.Close()
	if err := write(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("seqdb: rename: %w", err)
	}
	// Best-effort directory sync so the rename itself survives a crash.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
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
