package seqdb

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pattern"
)

func TestGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.lsqz")
	orig := sampleDB()
	if err := WriteGzipFile(path, orig); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != orig.Len() {
		t.Fatalf("Len=%d", db.Len())
	}
	if db.Path() != path {
		t.Errorf("Path=%q", db.Path())
	}
	var got [][]pattern.Symbol
	err = db.Scan(func(id int, seq []pattern.Symbol) error {
		cp := make([]pattern.Symbol, len(seq))
		copy(cp, seq)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := orig.Seq(i)
		if len(got[i]) != len(want) {
			t.Fatalf("seq %d length", i)
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("seq %d pos %d", i, j)
			}
		}
	}
	if db.Scans() != 1 {
		t.Errorf("Scans=%d", db.Scans())
	}
	db.ResetScans()
	if db.Scans() != 0 {
		t.Error("ResetScans failed")
	}
}

func TestGzipCompresses(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	db := NewMemDB(nil)
	for i := 0; i < 200; i++ {
		s := make([]pattern.Symbol, 200)
		for j := range s {
			s[j] = pattern.Symbol(rng.Intn(4)) // low-entropy data
		}
		db.Append(s)
	}
	plain := filepath.Join(dir, "a.lsq")
	packed := filepath.Join(dir, "a.lsqz")
	if err := WriteFile(plain, db); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzipFile(packed, db); err != nil {
		t.Fatal(err)
	}
	ps, _ := os.Stat(plain)
	zs, _ := os.Stat(packed)
	if zs.Size() >= ps.Size() {
		t.Errorf("gzip did not compress: %d vs %d bytes", zs.Size(), ps.Size())
	}
}

func TestGzipWriterValidation(t *testing.T) {
	w, err := CreateGzipFile(filepath.Join(t.TempDir(), "x.lsqz"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if err := w.Write([]pattern.Symbol{pattern.Eternal}); err == nil {
		t.Error("eternal symbol accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGzipAbortedScanDoesNotCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.lsqz")
	if err := WriteGzipFile(path, sampleDB()); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("stop")
	err = db.Scan(func(id int, _ []pattern.Symbol) error {
		if id == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || db.Scans() != 0 {
		t.Errorf("err=%v scans=%d", err, db.Scans())
	}
}

func TestOpenAutoDispatch(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "a.lsq")
	packed := filepath.Join(dir, "a.lsqz")
	if err := WriteFile(plain, sampleDB()); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzipFile(packed, sampleDB()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plain, packed} {
		db, err := OpenAuto(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if db.Len() != 4 {
			t.Errorf("%s: Len=%d", path, db.Len())
		}
		n := 0
		if err := db.Scan(func(int, []pattern.Symbol) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Errorf("%s: visited %d", path, n)
		}
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("JUNKJUNK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAuto(bad); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := OpenAuto(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}
