package seqdb

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/pattern"
)

// goldenSeqs are the sequences of the golden files in testdata, which were
// written by the encoders that preceded the shared record codec. They hold
// multi-byte varints, a 300-symbol sequence and the largest symbol.
func goldenSeqs() [][]pattern.Symbol {
	seqs := make([][]pattern.Symbol, 48)
	for i := range seqs {
		s := make([]pattern.Symbol, 1+(i*7)%23)
		if i == 5 {
			s = make([]pattern.Symbol, 300)
		}
		for j := range s {
			s[j] = pattern.Symbol((i*131 + j*977) % 70001)
		}
		seqs[i] = s
	}
	seqs[9][0] = 1<<31 - 1
	return seqs
}

// writeFormats writes seqs in every format — LSQ1, LSQ2, LSQZ and LSA1 —
// under dir and returns the paths by format name.
func writeFormats(t testing.TB, dir string, seqs [][]pattern.Symbol) map[string]string {
	t.Helper()
	paths := map[string]string{
		"lsq1": filepath.Join(dir, "db.lsq1"),
		"lsq2": filepath.Join(dir, "db.lsq2"),
		"lsqz": filepath.Join(dir, "db.lsqz"),
		"lsa1": filepath.Join(dir, "db.lsa"),
	}
	if err := WriteFile(paths["lsq2"], NewMemDB(seqs)); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzipFile(paths["lsqz"], NewMemDB(seqs)); err != nil {
		t.Fatal(err)
	}
	w, err := CreateLegacyFile(paths["lsq1"])
	if err != nil {
		t.Fatal(err)
	}
	log, err := CreateAppend(paths["lsa1"])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return paths
}

// rangeSeqs collects the sequences a range scan delivers, checking that
// the ids run from lo upward.
func rangeSeqs(t *testing.T, db Scanner, lo, hi int) [][]pattern.Symbol {
	t.Helper()
	got := [][]pattern.Symbol{}
	want := max(lo, 0)
	err := db.(RangeScanner).ScanRangeContext(context.Background(), lo, hi, func(id int, seq []pattern.Symbol) error {
		if id != want {
			t.Fatalf("range [%d,%d): id %d, want %d", lo, hi, id, want)
		}
		want++
		got = append(got, append([]pattern.Symbol(nil), seq...))
		return nil
	})
	if err != nil {
		t.Fatalf("range [%d,%d): %v", lo, hi, err)
	}
	return got
}

// TestFormatsAgree writes the same sequences in every format: a full scan
// of each must return them, a range scan must return exactly that slice of
// them, and only the full pass counts as a scan.
func TestFormatsAgree(t *testing.T) {
	seqs := goldenSeqs()
	n := len(seqs)
	for name, path := range writeFormats(t, t.TempDir(), seqs) {
		db, err := OpenAuto(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := collectSeqs(t, db); !reflect.DeepEqual(got, seqs) {
			t.Fatalf("%s: full scan differs from the written sequences", name)
		}
		for _, r := range [][2]int{{0, n}, {0, 1}, {3, 17}, {n - 1, n}, {-2, n + 5}, {20, 20}, {30, 10}} {
			lo, hi := max(r[0], 0), min(r[1], n)
			want := [][]pattern.Symbol{}
			if lo < hi {
				want = seqs[lo:hi]
			}
			if got := rangeSeqs(t, db, r[0], r[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: range %v delivered %d sequences, not seqs[%d:%d]", name, r, len(got), lo, hi)
			}
		}
		if db.Scans() != 1 {
			t.Errorf("%s: Scans=%d after one full pass and range scans, want 1", name, db.Scans())
		}
	}
}

// TestGoldenFilesReadBack reads the files in testdata, written before the
// formats shared one codec: each must return goldenSeqs, and LSQ1, LSQ2 and
// LSA1 written today must match them byte for byte. LSQZ is checked by
// read-back only, since deflate's output is not pinned across Go releases.
func TestGoldenFilesReadBack(t *testing.T) {
	seqs := goldenSeqs()
	fresh := writeFormats(t, t.TempDir(), seqs)
	for name, golden := range map[string]string{
		"lsq1": "golden.lsq1",
		"lsq2": "golden.lsq2",
		"lsqz": "golden.lsqz",
		"lsa1": "golden.lsa",
	} {
		path := filepath.Join("testdata", golden)
		db, err := OpenAuto(path)
		if err != nil {
			t.Fatalf("%s: %v", golden, err)
		}
		if got := collectSeqs(t, db); !reflect.DeepEqual(got, seqs) {
			t.Errorf("%s: read back differs from goldenSeqs", golden)
		}
		if name == "lsqz" {
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(fresh[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: a fresh %s file differs from %s", name, name, golden)
		}
	}
}

// TestPassAllocationsFlat guards the codec's allocations: a full DiskDB
// pass, a full AppendDB pass and a WriteFile must allocate no more over
// 4,000 records than over 200.
func TestPassAllocationsFlat(t *testing.T) {
	allocs := func(n int) (disk, log, write float64) {
		seqs := make([][]pattern.Symbol, n)
		for i := range seqs {
			// The first record is the longest, so the decode buffers reach
			// their size on it.
			seqs[i] = make([]pattern.Symbol, 60-i%7)
			for j := range seqs[i] {
				seqs[i][j] = pattern.Symbol((i + j*37) % 300)
			}
		}
		dir := t.TempDir()
		paths := writeFormats(t, dir, seqs)
		pass := func(db Scanner) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := db.Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
					t.Fatal(err)
				}
			})
		}
		ddb, err := OpenFile(paths["lsq2"])
		if err != nil {
			t.Fatal(err)
		}
		adb, err := OpenAppendRead(paths["lsa1"])
		if err != nil {
			t.Fatal(err)
		}
		mem := NewMemDB(seqs)
		out := filepath.Join(dir, "out.lsq")
		write = testing.AllocsPerRun(5, func() {
			if err := WriteFile(out, mem); err != nil {
				t.Fatal(err)
			}
		})
		return pass(ddb), pass(adb), write
	}
	d1, a1, w1 := allocs(200)
	d2, a2, w2 := allocs(4000)
	if d2 > d1 {
		t.Errorf("DiskDB pass: %v allocations over 4,000 records, %v over 200", d2, d1)
	}
	if a2 > a1 {
		t.Errorf("AppendDB pass: %v allocations over 4,000 records, %v over 200", a2, a1)
	}
	if w2 > w1 {
		t.Errorf("WriteFile: %v allocations for 4,000 records, %v for 200", w2, w1)
	}
}

// TestDamagedLengthAllocatesLittle: a record whose length field declares
// MaxSequenceLen symbols that are not there must not allocate for all of
// them, neither in a DiskDB scan nor in an append log's recovery.
func TestDamagedLengthAllocatesLittle(t *testing.T) {
	dir := t.TempDir()
	length := binary.AppendUvarint(nil, MaxSequenceLen)
	lsq := filepath.Join(dir, "damaged.lsq")
	if err := os.WriteFile(lsq, append([]byte("LSQ2\x01\x00\x00\x00\x00\x00\x00\x00"), length...), 0o644); err != nil {
		t.Fatal(err)
	}
	lsa := filepath.Join(dir, "damaged.lsa")
	if err := os.WriteFile(lsa, append([]byte("LSA1\x00\x00\x00\x00\x00\x00\x00\x00"), length...), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(lsq)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := allocated(func() {
		if err := scanAll(db); err == nil {
			t.Error("a record missing its symbols scanned cleanly")
		}
	}); got > 1<<20 {
		t.Errorf("scanning a %d-byte file allocated %d bytes", 12+len(length), got)
	}
	// Recovery reads through a 1 MiB buffer; the damaged record may add
	// little to it.
	if got := allocated(func() {
		log, err := OpenAppendRead(lsa)
		if err != nil {
			t.Fatal(err)
		}
		if log.Len() != 0 {
			t.Errorf("recovery kept %d records, want the torn one dropped", log.Len())
		}
	}); got > 2<<20 {
		t.Errorf("recovering a %d-byte log allocated %d bytes", 12+len(length), got)
	}
}

// eioOnceScanner scans an LSQ2 or LSQZ file image as DiskDB does, through
// countingReader and the record decoder (under gzip for LSQZ), but its
// first pass's file reads fail with EIO once failAt bytes are read.
type eioOnceScanner struct {
	image  []byte
	n      int
	failAt int
	passes int
}

func (s *eioOnceScanner) Len() int    { return s.n }
func (s *eioOnceScanner) Scans() int  { return s.passes }
func (s *eioOnceScanner) ResetScans() { s.passes = 0 }

func (s *eioOnceScanner) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	s.passes++
	var file io.Reader = bytes.NewReader(s.image)
	if s.passes == 1 {
		eio := &fs.PathError{Op: "read", Path: "db", Err: syscall.EIO}
		file = io.MultiReader(bytes.NewReader(s.image[:s.failAt]), iotest.ErrReader(eio))
	}
	body := bufio.NewReader(&countingReader{r: file, n: new(atomic.Int64)})
	if _, err := body.Discard(12); err != nil {
		return err
	}
	if [4]byte(s.image[:4]) == gzipMagic {
		zr, err := gzip.NewReader(body)
		if err != nil {
			return err
		}
		body = bufio.NewReader(zr)
	}
	rr := recordReader{br: body, path: "db", checksum: [4]byte(s.image[:4]) == diskMagicV2}
	for i := 0; i < s.n; i++ {
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

// TestEIOInsideRecordIsRetried: a file read that fails with EIO in the
// middle of a record is an I/O error, not corruption, so a RetryScanner
// runs the pass again and delivers every sequence intact. In LSQZ the EIO
// reaches the decoder through gzip.
func TestEIOInsideRecordIsRetried(t *testing.T) {
	want := goldenSeqs()
	paths := writeFormats(t, t.TempDir(), want)
	for _, format := range []string{"lsq2", "lsqz"} {
		image, err := os.ReadFile(paths[format])
		if err != nil {
			t.Fatal(err)
		}
		inner := &eioOnceScanner{image: image, n: len(want), failAt: len(image) / 2}
		var first error
		r := &RetryScanner{Inner: inner, Sleep: func(time.Duration) {},
			Classify: func(err error) bool { first = err; return IsTransient(err) }}
		var got [][]pattern.Symbol
		err = ScanPass(r, func() (func(int, []pattern.Symbol) error, error) {
			got = got[:0]
			return func(_ int, seq []pattern.Symbol) error {
				got = append(got, append([]pattern.Symbol(nil), seq...))
				return nil
			}, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		var ce *CorruptError
		if !errors.Is(first, syscall.EIO) || errors.As(first, &ce) {
			t.Errorf("%s: the failed pass reported %v; want an EIO that is not a CorruptError", format, first)
		}
		if st := r.ScanStats(); st.Retries != 1 || inner.passes != 2 {
			t.Errorf("%s: %+v over %d passes, want one retry", format, st, inner.passes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the retried pass delivered other sequences", format)
		}
	}
}
