package seqdb

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/pattern"
)

// FuzzDiskScan checks that scanning arbitrary bytes as a database file never
// panics: it either errors cleanly or yields well-formed sequences, and after
// a clean full scan a range scan delivers exactly that slice of it. Seeds
// cover every format (LSQ2, legacy LSQ1, gzip-compressed LSQZ, the LSA1
// append log).
func FuzzDiskScan(f *testing.F) {
	dir := f.TempDir()
	seedDB := NewMemDB([][]pattern.Symbol{{0, 1, 2}, {3}})
	good := filepath.Join(dir, "seed.lsq")
	if err := WriteFile(good, seedDB); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	legacy := filepath.Join(dir, "seed1.lsq")
	lw, err := CreateLegacyFile(legacy)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < seedDB.Len(); i++ {
		if err := lw.Write(seedDB.Seq(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		f.Fatal(err)
	}
	rawLegacy, err := os.ReadFile(legacy)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rawLegacy)

	packed := filepath.Join(dir, "seed.lsqz")
	if err := WriteGzipFile(packed, seedDB); err != nil {
		f.Fatal(err)
	}
	rawGzip, err := os.ReadFile(packed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rawGzip)
	// A gzip container whose deflate body is cut short.
	f.Add(rawGzip[:len(rawGzip)-6])

	logPath := filepath.Join(dir, "seed.lsa")
	log, err := CreateAppend(logPath)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < seedDB.Len(); i++ {
		if _, err := log.Append(seedDB.Seq(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		f.Fatal(err)
	}
	rawLog, err := os.ReadFile(logPath)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte("LSQ1garbage"))
	f.Add([]byte("LSQ2garbage"))
	f.Add([]byte("LSQZgarbage"))
	f.Add([]byte{})
	f.Add(rawLog)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.lsq")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenAuto(path)
		if err != nil {
			return
		}
		var full [][]pattern.Symbol
		err = db.Scan(func(id int, seq []pattern.Symbol) error {
			if len(seq) == 0 {
				t.Fatal("scanner produced an empty sequence")
			}
			full = append(full, append([]pattern.Symbol(nil), seq...))
			return nil
		})
		if err != nil {
			return
		}
		lo, hi := len(full)/3, len(full)-len(full)/3
		got := rangeSeqs(t, db, lo, hi)
		if len(got) != hi-lo {
			t.Fatalf("range [%d,%d) delivered %d sequences after a clean full scan of %d", lo, hi, len(got), len(full))
		}
		for i, seq := range got {
			if !slices.Equal(seq, full[lo+i]) {
				t.Fatalf("range [%d,%d): sequence %d differs from the full scan's", lo, hi, lo+i)
			}
		}
	})
}
