package seqdb

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pattern"
)

// FuzzAppendDBReadFrom feeds arbitrary bytes to the append-log recovery path
// and checks its crash-safety contract: opening never panics, and either
// fails cleanly or yields a consistent prefix of intact records — the same
// prefix whether the log is opened read-write (with truncation) or read-only
// (without). Truncation is never silent: whenever recovery drops bytes,
// TruncatedBytes reports them. Every input must give the reference
// decoder's outcome (referenceNext) on opening and scanning.
func FuzzAppendDBReadFrom(f *testing.F) {
	dir := f.TempDir()
	good := filepath.Join(dir, "seed.lsa")
	db, err := CreateAppend(good)
	if err != nil {
		f.Fatal(err)
	}
	for _, seq := range [][]pattern.Symbol{{0, 1, 2}, {3}, {250, 1000}} {
		if _, err := db.Append(seq); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-1])                               // torn final checksum
	f.Add(raw[:14])                                       // torn first record
	f.Add(append(raw, 0x03, 0x01))                        // trailing garbage
	f.Add([]byte("LSA1"))                                 // bare short header
	f.Add([]byte("LSA1\x00\x00\x00\x00\x00\x00\x00\x00")) // empty log
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		roPath := filepath.Join(dir, "ro.lsa")
		if err := os.WriteFile(roPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		requireReferenceOutcome(t, roPath, nil, nil, "fuzz input")
		ro, roErr := OpenAppendRead(roPath)
		var roSeqs [][]pattern.Symbol
		if roErr == nil {
			err := ro.Scan(func(id int, seq []pattern.Symbol) error {
				if len(seq) == 0 {
					t.Fatal("read-only scan produced an empty sequence")
				}
				cp := make([]pattern.Symbol, len(seq))
				copy(cp, seq)
				roSeqs = append(roSeqs, cp)
				return nil
			})
			if err != nil {
				t.Fatalf("scan of recovered prefix failed: %v", err)
			}
		}

		rwPath := filepath.Join(dir, "rw.lsa")
		if err := os.WriteFile(rwPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rw, rwErr := OpenAppend(rwPath)
		if (roErr == nil) != (rwErr == nil) {
			// One legitimate divergence: read-write repairs short headers.
			if !(roErr != nil && rwErr == nil && len(data) < 12) {
				t.Fatalf("read-only err=%v, read-write err=%v", roErr, rwErr)
			}
		}
		if rwErr != nil {
			return
		}
		defer rw.Close()
		var rwSeqs [][]pattern.Symbol
		err := rw.Scan(func(id int, seq []pattern.Symbol) error {
			cp := make([]pattern.Symbol, len(seq))
			copy(cp, seq)
			rwSeqs = append(rwSeqs, cp)
			return nil
		})
		if err != nil {
			t.Fatalf("scan after truncating recovery failed: %v", err)
		}
		if roErr == nil && !reflect.DeepEqual(roSeqs, rwSeqs) {
			t.Fatalf("read-only recovered %v, read-write %v", roSeqs, rwSeqs)
		}
		// The truncated log must accept appends and stay recoverable.
		if _, err := rw.Append([]pattern.Symbol{9}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		reopened, err := OpenAppend(rwPath)
		if err != nil {
			t.Fatalf("reopen after recovery+append: %v", err)
		}
		defer reopened.Close()
		if reopened.TruncatedBytes() != 0 {
			t.Fatalf("recovered log still carries %d torn bytes", reopened.TruncatedBytes())
		}
		if got := reopened.Total(); got != len(rwSeqs)+1 {
			t.Fatalf("reopened Total = %d, want %d", got, len(rwSeqs)+1)
		}
	})
}
