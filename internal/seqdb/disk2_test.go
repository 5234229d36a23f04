package seqdb

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pattern"
)

// writeSample writes sampleDB to a fresh path and returns it with the raw
// bytes.
func writeSample(t *testing.T, legacy bool) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.lsq")
	var err error
	if legacy {
		var w *Writer
		w, err = CreateLegacyFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sampleDB().Len(); i++ {
			if err := w.Write(sampleDB().Seq(i)); err != nil {
				t.Fatal(err)
			}
		}
		err = w.Close()
	} else {
		err = WriteFile(path, sampleDB())
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func scanAll(db *DiskDB) error {
	return db.Scan(func(int, []pattern.Symbol) error { return nil })
}

func TestLSQ2RoundTripAndVersion(t *testing.T) {
	path, raw := writeSample(t, false)
	if string(raw[:4]) != "LSQ2" {
		t.Fatalf("magic %q, want LSQ2", raw[:4])
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.magic != diskMagicV2 {
		t.Errorf("magic=%q", db.magic)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := sampleDB()
	if back.Len() != orig.Len() {
		t.Fatalf("Len=%d", back.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		a, b := orig.Seq(i), back.Seq(i)
		if len(a) != len(b) {
			t.Fatalf("seq %d length", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("seq %d pos %d", i, j)
			}
		}
	}
	// OpenAuto dispatches LSQ2 too.
	auto, err := OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Len() != orig.Len() {
		t.Errorf("OpenAuto Len=%d", auto.Len())
	}
}

func TestLegacyLSQ1StillReads(t *testing.T) {
	path, raw := writeSample(t, true)
	if string(raw[:4]) != "LSQ1" {
		t.Fatalf("magic %q, want LSQ1", raw[:4])
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.magic != diskMagic {
		t.Errorf("magic=%q", db.magic)
	}
	if err := scanAll(db); err != nil {
		t.Fatal(err)
	}
	if db.Scans() != 1 {
		t.Errorf("Scans=%d", db.Scans())
	}
	if _, err := OpenAuto(path); err != nil {
		t.Errorf("OpenAuto legacy: %v", err)
	}
}

func TestLSQ2DetectsEveryFlippedPayloadByte(t *testing.T) {
	path, raw := writeSample(t, false)
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte after the 12-byte header (payload, checksums,
	// trailer) in turn; every single flip must be detected.
	for i := 12; i < len(raw); i++ {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := scanAll(db); err == nil {
			t.Fatalf("flipped byte %d not detected", i)
		}
	}
	// Header count flips must be detected too (magic flips fail at open).
	for i := 4; i < 12; i++ {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := OpenFile(path)
		if err != nil {
			continue
		}
		if err := scanAll(fresh); err == nil {
			t.Fatalf("flipped header byte %d not detected", i)
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := scanAll(db); err != nil {
		t.Fatalf("restored file fails: %v", err)
	}
}

func TestLSQ2DetectsEveryTruncation(t *testing.T) {
	path, raw := writeSample(t, false)
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 12; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		err := scanAll(db)
		if err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation at %d: %v is not a CorruptError", cut, err)
		}
	}
}

func TestLSQ2CorruptErrorNamesSequence(t *testing.T) {
	path, raw := writeSample(t, false)
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sequence 0 is {0,1,2,0}: 1 length byte + 4 symbol bytes + 4 CRC
	// bytes. Corrupt a symbol byte of sequence 1 (offset 12+9+1 is seq 1's
	// first symbol byte).
	bad := append([]byte(nil), raw...)
	bad[12+9+1] ^= 0x20
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	err = scanAll(db)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err=%v, want CorruptError", err)
	}
	if ce.Seq != 1 {
		t.Errorf("Seq=%d, want 1", ce.Seq)
	}
	if !strings.Contains(ce.Error(), "sequence 1") {
		t.Errorf("message %q does not name the sequence", ce.Error())
	}
	if IsTransient(err) {
		t.Error("corruption classified transient")
	}
}

func TestLSQ1RejectsTrailingGarbage(t *testing.T) {
	path, raw := writeSample(t, true)
	if err := os.WriteFile(path, append(raw, 'j', 'u', 'n', 'k'), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = scanAll(db)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("trailing garbage: err=%v, want CorruptError", err)
	}
	if ce.Seq != -1 || !strings.Contains(ce.Msg, "trailing garbage") {
		t.Errorf("CorruptError=%+v", ce)
	}
}

func TestLSQ1RejectsHandTruncatedFile(t *testing.T) {
	// Regression: a legacy file whose header count exceeds the actual
	// sequence count, cut exactly at a varint boundary between sequences,
	// must error instead of silently yielding fewer sequences. sampleDB's
	// last sequence {1,1} occupies the final 3 bytes of an LSQ1 file.
	path, raw := writeSample(t, true)
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 4 {
		t.Fatalf("Len=%d, want the declared 4", db.Len())
	}
	err = scanAll(db)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("hand-truncated file: err=%v, want CorruptError", err)
	}
	if ce.Seq != 3 {
		t.Errorf("Seq=%d, want 3 (the missing sequence)", ce.Seq)
	}
}

func TestLSQ2RejectsTrailingGarbage(t *testing.T) {
	path, raw := writeSample(t, false)
	if err := os.WriteFile(path, append(raw, 0xAB), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := scanAll(db); err == nil {
		t.Fatal("trailing garbage after the trailer accepted")
	}
}

func TestWriterRejectsWriteAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lsq")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]pattern.Symbol{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]pattern.Symbol{3}); err == nil {
		t.Error("Write after Close accepted")
	}
	if err := w.Close(); err == nil {
		t.Error("double Close accepted")
	}
}

func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.lsq")
	// Seed the destination with garbage: an interrupted rewrite must never
	// leave it torn, and a successful one must fully replace it.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, sampleDB()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("rewritten file unreadable: %v", err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "db.lsq" {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	// A failed write (unwritable directory) must not touch the
	// destination.
	if err := WriteFile(filepath.Join(dir, "missing", "db.lsq"), sampleDB()); err == nil {
		t.Error("write into missing directory succeeded")
	}
}

// TestWrittenFilesGetTheUmaskMode: the crash-atomic writers give their
// files the mode a plain create gives under the same umask, as a sibling
// written by os.WriteFile shows: the stores that of CreateLegacyFile
// (0666), the append log's head sidecar that of CreateAppend (0644).
func TestWrittenFilesGetTheUmaskMode(t *testing.T) {
	dir := t.TempDir()
	mode := func(path string) os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	sibling := func(name string, perm os.FileMode) os.FileMode {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, nil, perm); err != nil {
			t.Fatal(err)
		}
		return mode(path)
	}
	store := sibling("plain.lsq", 0o666)
	for name, write := range map[string]func(string, *MemDB) error{"db.lsq": WriteFile, "db.lsqz": WriteGzipFile} {
		path := filepath.Join(dir, name)
		if err := write(path, sampleDB()); err != nil {
			t.Fatal(err)
		}
		if got := mode(path); got != store {
			t.Errorf("%s: mode %v, want %v", name, got, store)
		}
	}
	log, err := CreateAppend(filepath.Join(dir, "db.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for i := 0; i < 2; i++ {
		if _, err := log.Append(sampleDB().Seq(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.ExpireBefore(1); err != nil {
		t.Fatal(err)
	}
	if got, want := mode(log.Path()+headSuffix), sibling("plain.head", 0o644); got != want {
		t.Errorf("head sidecar: mode %v, want %v", got, want)
	}
}

func TestDiskScanContextCancels(t *testing.T) {
	path, _ := writeSample(t, false)
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err = db.ScanContext(ctx, func(id int, _ []pattern.Symbol) error {
		seen++
		if id == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if seen != 2 {
		t.Errorf("saw %d sequences after cancel, want 2", seen)
	}
	if db.Scans() != 0 {
		t.Error("cancelled pass counted as a scan")
	}
}

// TestDiskPassReusesReadBuffer checks that a pass takes the buffer the last
// one left instead of allocating its own, and that a file smaller than the
// buffer cap gets a buffer no larger than the file.
func TestDiskPassReusesReadBuffer(t *testing.T) {
	seqs := make([][]pattern.Symbol, 6000) // 200 one-byte symbols each: 1.2 MB on disk
	for i := range seqs {
		seqs[i] = make([]pattern.Symbol, 200)
		for j := range seqs[i] {
			seqs[i][j] = pattern.Symbol((i + j) % 20)
		}
	}
	path := filepath.Join(t.TempDir(), "big.lsq")
	if err := WriteFile(path, NewMemDB(seqs)); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := scanAll(db); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := scanAll(db); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a second pass allocated %d bytes, want under 64 KiB", got)
	}
	if br := db.spare.Load(); br == nil || br.Size() != maxReadBuffer {
		t.Fatalf("after a pass over a 1.2 MB file the handle keeps %v, want a %d-byte reader", br, maxReadBuffer)
	}

	small, raw := writeSample(t, false)
	db, err = OpenFile(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := scanAll(db); err != nil {
		t.Fatal(err)
	}
	if br := db.spare.Load(); br == nil || br.Size() > len(raw) {
		t.Errorf("after a pass over a %d-byte file the handle keeps %v, want a reader no larger", len(raw), br)
	}
}
