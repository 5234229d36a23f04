package seqdb

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pattern"
)

// writeGzipSample writes sampleDB in the compressed format and returns the
// path and raw bytes.
func writeGzipSample(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.lsqz")
	if err := WriteGzipFile(path, sampleDB()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestGzipDetectsCorruptDeflateStream(t *testing.T) {
	path, raw := writeGzipSample(t)
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte of the compressed body (after the 12-byte seqdb
	// header and the 10-byte gzip header) in turn. Whether flate chokes
	// mid-sequence or the gzip footer checksum catches it on drain, every
	// flip must surface as corruption.
	for i := 12 + 10; i < len(raw); i++ {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		err := db.Scan(func(int, []pattern.Symbol) error { return nil })
		if err == nil {
			t.Fatalf("flipped compressed byte %d not detected", i)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flipped byte %d: %v is not a CorruptError", i, err)
		}
		if IsTransient(err) {
			t.Fatalf("flipped byte %d classified transient", i)
		}
	}
}

func TestGzipDetectsPrematureEOF(t *testing.T) {
	path, raw := writeGzipSample(t)
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the gzip footer (checksum verification fails on drain) and
	// deep inside the deflate body (decompression fails mid-sequence).
	for _, cut := range []int{len(raw) - 4, len(raw) - 9, 12 + 10 + 3} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		err := db.Scan(func(int, []pattern.Symbol) error { return nil })
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation at %d: err=%v, want CorruptError", cut, err)
		}
	}
	if db.Scans() != 0 {
		t.Error("failed passes counted as scans")
	}
}

func TestGzipRejectsTrailingGarbageInStream(t *testing.T) {
	path, raw := writeGzipSample(t)
	// Patch the declared count down to 3: the fourth sequence's bytes are
	// now trailing garbage inside the stream.
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[4:], 3)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = db.Scan(func(int, []pattern.Symbol) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err=%v, want CorruptError", err)
	}
	if ce.Seq != -1 {
		t.Errorf("Seq=%d, want -1 (file-level)", ce.Seq)
	}
}

func TestGzipWriterRejectsWriteAfterClose(t *testing.T) {
	w, err := CreateGzipFile(filepath.Join(t.TempDir(), "x.lsqz"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]pattern.Symbol{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]pattern.Symbol{2}); err == nil {
		t.Error("Write after Close accepted")
	}
	if err := w.Close(); err == nil {
		t.Error("double Close accepted")
	}
}

func TestGzipScanContextCancels(t *testing.T) {
	path, _ := writeGzipSample(t)
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = db.ScanContext(ctx, func(int, []pattern.Symbol) error {
		t.Error("callback ran under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if db.Scans() != 0 {
		t.Error("cancelled pass counted as a scan")
	}
}
