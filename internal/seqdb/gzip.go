package seqdb

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/pattern"
)

// Compressed disk format: the same varint body as the plain format, wrapped
// in gzip, with its own magic so OpenAuto can dispatch.
//
//	magic  [4]byte "LSQZ"
//	n      uint64  number of sequences (little endian, uncompressed header)
//	body   gzip(varint sequences)
var gzipMagic = [4]byte{'L', 'S', 'Q', 'Z'}

// GzipWriter streams sequences into the compressed on-disk format.
type GzipWriter struct {
	f      *os.File
	zw     *gzip.Writer
	bw     *bufio.Writer
	n      uint64
	buf    []byte
	closed bool
}

// CreateGzipFile opens path for writing in the compressed format.
func CreateGzipFile(path string) (*GzipWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("seqdb: create: %w", err)
	}
	if _, err := f.Write(gzipMagic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("seqdb: write header: %w", err)
	}
	var zero [8]byte
	if _, err := f.Write(zero[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("seqdb: write header: %w", err)
	}
	zw := gzip.NewWriter(f)
	return &GzipWriter{
		f:   f,
		zw:  zw,
		bw:  bufio.NewWriterSize(zw, 1<<20),
		buf: make([]byte, binary.MaxVarintLen64),
	}, nil
}

// Write appends one sequence.
func (w *GzipWriter) Write(seq []pattern.Symbol) error {
	if w.closed {
		return fmt.Errorf("seqdb: write after Close")
	}
	if len(seq) == 0 {
		return fmt.Errorf("seqdb: empty sequence")
	}
	k := binary.PutUvarint(w.buf, uint64(len(seq)))
	if _, err := w.bw.Write(w.buf[:k]); err != nil {
		return fmt.Errorf("seqdb: write: %w", err)
	}
	for _, d := range seq {
		if d.IsEternal() {
			return fmt.Errorf("seqdb: sequence contains the eternal symbol")
		}
		k = binary.PutUvarint(w.buf, uint64(d))
		if _, err := w.bw.Write(w.buf[:k]); err != nil {
			return fmt.Errorf("seqdb: write: %w", err)
		}
	}
	w.n++
	return nil
}

// Close flushes the compressor, patches the sequence count, fsyncs, and
// closes. A closed GzipWriter rejects further Writes.
func (w *GzipWriter) Close() error {
	if w.closed {
		return fmt.Errorf("seqdb: Close on closed writer")
	}
	w.closed = true
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("seqdb: flush: %w", err)
	}
	if err := w.zw.Close(); err != nil {
		w.f.Close()
		return fmt.Errorf("seqdb: gzip close: %w", err)
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], w.n)
	if _, err := w.f.WriteAt(cnt[:], int64(len(gzipMagic))); err != nil {
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

// GzipDB is a gzip-compressed disk-resident database; every Scan streams
// and decompresses the file from the start.
type GzipDB struct {
	path  string
	n     int
	scans atomic.Int64 // readable concurrently with a scan (progress UIs)
	bytes atomic.Int64
}

// OpenGzipFile validates the header of a compressed database.
func OpenGzipFile(path string) (*GzipDB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seqdb: open: %w", err)
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("seqdb: read header: %w", err)
	}
	if [4]byte(hdr[:4]) != gzipMagic {
		return nil, fmt.Errorf("seqdb: %s: bad magic %q", path, hdr[:4])
	}
	n, err := headerCount(path, hdr[4:])
	if err != nil {
		return nil, err
	}
	return &GzipDB{path: path, n: n}, nil
}

// Len returns the number of sequences.
func (db *GzipDB) Len() int { return db.n }

// Scans returns the number of completed full passes. Safe to call
// concurrently with a running scan.
func (db *GzipDB) Scans() int { return int(db.scans.Load()) }

// ResetScans zeroes the pass counter.
func (db *GzipDB) ResetScans() { db.scans.Store(0) }

// Path returns the backing file path.
func (db *GzipDB) Path() string { return db.path }

// BytesRead returns the total compressed bytes read from the backing file
// across all passes so far — the store's real delivered I/O, measured before
// decompression, so the telemetry layer reports actual disk traffic instead
// of a symbol-count estimate.
func (db *GzipDB) BytesRead() int64 { return db.bytes.Load() }

// Scan implements Scanner.
func (db *GzipDB) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return db.ScanContext(nil, fn)
}

// ScanContext implements ContextScanner. A truncated or corrupt deflate
// stream, a body shorter than the declared count, and trailing garbage after
// the last sequence are all reported as errors (the gzip footer's own
// checksum is verified when the stream drains).
func (db *GzipDB) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	f, err := os.Open(db.path)
	if err != nil {
		return fmt.Errorf("seqdb: open: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(12, io.SeekStart); err != nil {
		return fmt.Errorf("seqdb: skip header: %w", err)
	}
	db.bytes.Add(12) // header bytes consumed by OpenGzipFile's validation path
	zr, err := gzip.NewReader(bufio.NewReaderSize(&countingReader{r: f, n: &db.bytes}, 1<<20))
	if err != nil {
		return fmt.Errorf("seqdb: gzip: %w", err)
	}
	defer zr.Close()
	br := bufio.NewReaderSize(zr, 1<<20)
	var seq []pattern.Symbol
	for i := 0; i < db.n; i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		l, err := binary.ReadUvarint(br)
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
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return corrupt(db.path, i, fmt.Sprintf("truncated at symbol %d", j), err)
			}
			seq[j] = pattern.Symbol(v)
		}
		if err := fn(i, seq); err != nil {
			return err
		}
	}
	// Drain to EOF: verifies the gzip footer checksum and rejects trailing
	// garbage after the declared sequence count.
	switch _, err := br.ReadByte(); err {
	case io.EOF:
	case nil:
		return corrupt(db.path, -1, fmt.Sprintf("trailing garbage after %d sequences", db.n), nil)
	default:
		return corrupt(db.path, -1, "stream did not end cleanly", err)
	}
	db.scans.Add(1)
	return nil
}

// WriteGzipFile persists an in-memory database in the compressed format,
// crash-atomically (temp file + fsync + rename, as WriteFile).
func WriteGzipFile(path string, db *MemDB) error {
	return atomicWrite(path, func(tmp string) error {
		w, err := CreateGzipFile(tmp)
		if err != nil {
			return err
		}
		for _, seq := range db.seqs {
			if err := w.Write(seq); err != nil {
				w.f.Close()
				return err
			}
		}
		return w.Close()
	})
}

// OpenAuto opens a database file of either on-disk format, dispatching on
// the magic bytes.
func OpenAuto(path string) (Scanner, error) {
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
	switch magic {
	case diskMagic, diskMagicV2:
		return OpenFile(path)
	case gzipMagic:
		return OpenGzipFile(path)
	case appendMagic:
		// Append logs open read-only here: a mining job scans the intact
		// prefix (live window) while the owning appender keeps writing.
		return OpenAppendRead(path)
	default:
		return nil, fmt.Errorf("seqdb: %s: unknown format %q", path, magic)
	}
}
