package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pattern"
)

// sample builds a fully populated snapshot exercising every section.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		ConfigHash:  0xdeadbeefcafe,
		DBPath:      "/tmp/test.lsq",
		DBLen:       1234,
		Engine:      "candidates",
		Seed:        -42,
		RngDraws:    999,
		Phase:       3,
		SymbolMatch: []float64{0.5, 0.25, 0.125},
		Sample: [][]pattern.Symbol{
			{0, 1, 2},
			{2, 2},
		},
		Phase2: &Phase2State{
			Values:             map[string]float64{"0": 0.5, "0,1": 0.3},
			Spreads:            map[string]float64{"0": 0.5, "0,1": 0.25},
			Labels:             map[string]uint8{"0": 2, "0,1": 1, "1,2": 0},
			CandidatesPerLevel: []int{3, 2},
			AlivePerLevel:      []int{2, 1},
			Truncated:          true,
		},
		Probe: &ProbeState{
			Scans:    2,
			Probed:   5,
			Exact:    map[string]float64{"0,1": 0.31},
			Frequent: []string{"0", "0,1"},
			Pending:  []string{"1,2,0"},
		},
	}
}

func roundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	out := &Snapshot{}
	if _, err := out.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return out
}

func TestRoundTripFull(t *testing.T) {
	in := sampleSnapshot()
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestRoundTripPhase1Only(t *testing.T) {
	in := sampleSnapshot()
	in.Phase = 1
	in.Phase2 = nil
	in.Probe = nil
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestRoundTripPhase2(t *testing.T) {
	in := sampleSnapshot()
	in.Phase = 2
	in.Probe = nil
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDeterministicBytes(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := sampleSnapshot().WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := sampleSnapshot().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical snapshots serialized to different bytes")
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.lckp")
	in := sampleSnapshot()
	n, err := Save(path, in)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != n {
		t.Errorf("Save reported %d bytes, file has %d", n, st.Size())
	}
	out, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Error("Save/Load round trip mismatch")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the snapshot", len(entries))
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.lckp")
	first := sampleSnapshot()
	first.Phase = 1
	first.Phase2, first.Probe = nil, nil
	if _, err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	second := sampleSnapshot()
	if _, err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	out, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Phase != 3 {
		t.Errorf("Load after overwrite: phase %d, want 3", out.Phase)
	}
}

// mustCorrupt asserts err is a *CorruptError for the given section.
func mustCorrupt(t *testing.T, err error, section string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want *CorruptError in section %q, got nil", section)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %T: %v", err, err)
	}
	if ce.Section != section {
		t.Errorf("CorruptError section %q, want %q (err: %v)", ce.Section, section, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := sampleSnapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte{}, raw...)
		b[0] ^= 0xFF
		err := new(Snapshot).readBytes(b)
		mustCorrupt(t, err, "header")
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte{}, raw...)
		b[4] = 99
		err := new(Snapshot).readBytes(b)
		mustCorrupt(t, err, "header")
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(raw); cut += 7 {
			if err := new(Snapshot).readBytes(raw[:len(raw)-cut]); err == nil {
				t.Fatalf("truncation by %d bytes accepted", cut)
			} else {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("truncation by %d: want *CorruptError, got %T", cut, err)
				}
			}
		}
	})
	t.Run("flipped byte", func(t *testing.T) {
		// Every single-byte flip inside a section payload must be caught
		// (by the CRC, or by a parse error naming the section).
		for i := 5; i < len(raw); i += 3 {
			b := append([]byte{}, raw...)
			b[i] ^= 0x40
			if bytes.Equal(b, raw) {
				continue
			}
			if err := new(Snapshot).readBytes(b); err == nil {
				t.Fatalf("flip at offset %d accepted", i)
			} else {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip at %d: want *CorruptError, got %T: %v", i, err, err)
				}
			}
		}
	})
}

// readBytes parses b fully, also rejecting trailing garbage (mirrors Load).
func (s *Snapshot) readBytes(b []byte) error {
	r := bytes.NewReader(b)
	if _, err := s.ReadFrom(r); err != nil {
		return err
	}
	if r.Len() != 0 {
		return corrupt("trailer", "trailing garbage after end marker", nil)
	}
	return nil
}

func TestPhaseSectionConsistency(t *testing.T) {
	// Meta declaring phase 2 without a phase2 section must be rejected.
	s := sampleSnapshot()
	s.Phase2 = nil
	s.Probe = nil
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	err := new(Snapshot).readBytes(buf.Bytes())
	mustCorrupt(t, err, "phase2")
}

// streamSnapshot is a stream session's snapshot with a live mine: phase1,
// phase2 and stream sections, no probe section.
func streamSnapshot() *Snapshot {
	s := sampleSnapshot()
	s.Engine = "stream"
	s.Phase = 2
	s.Probe = nil
	s.Stream = &StreamState{
		Cursor:      40,
		WindowStart: 10,
		SymbolSums:  []float64{15, 7.5, 3.75},
		ExactSums:   map[string]float64{"0,1": 9.3, "1,2,0": 0.5},
	}
	return s
}

func TestRoundTripStream(t *testing.T) {
	in := streamSnapshot()
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in.Stream, out.Stream)
	}
}

// olderLayout serializes s with its stream section written field by field,
// sampleSums in the map between the symbol sums and the exact sums.
func olderLayout(t *testing.T, s *Snapshot, sampleSums map[string]float64) []byte {
	t.Helper()
	st := s.Stream
	dup := *s
	dup.Stream = nil
	var buf bytes.Buffer
	if _, err := dup.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Truncate(buf.Len() - 6) // the end marker: tag, zero length, CRC
	var sw sectionWriter
	sw.uvarint(uint64(st.Cursor))
	sw.uvarint(uint64(st.WindowStart))
	sw.uvarint(uint64(len(st.SymbolSums)))
	for _, v := range st.SymbolSums {
		sw.float(v)
	}
	sw.floatMap(sampleSums)
	sw.floatMap(st.ExactSums)
	for _, sec := range []struct {
		tag     byte
		payload []byte
	}{{secStream, sw.buf.Bytes()}, {secEnd, nil}} {
		if _, err := emit(&buf, sec.tag, sec.payload); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestStreamSectionLayout: the stream section keeps the layout that carried
// each live candidate's sample sum. The writer leaves that map empty, and a
// section whose map is full decodes to the same state with the sums dropped.
func TestStreamSectionLayout(t *testing.T) {
	in := streamSnapshot()
	var buf bytes.Buffer
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), olderLayout(t, in, nil)) {
		t.Fatal("the stream section's layout changed")
	}
	out := &Snapshot{}
	if err := out.readBytes(olderLayout(t, in, map[string]float64{"0": 20, "0,1": 12, "1,2": 0.25})); err != nil {
		t.Fatalf("a section with sample sums: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("a section with sample sums decoded to\n%+v\nwant\n%+v", out.Stream, in.Stream)
	}
}

// TestStreamSectionRules: a stream snapshot whose cursor precedes its window
// start, or that carries a probe section, is corrupt.
func TestStreamSectionRules(t *testing.T) {
	for name, mutate := range map[string]func(*Snapshot){
		"cursor before window start": func(s *Snapshot) { s.Stream.Cursor = s.Stream.WindowStart - 1 },
		"probe section":              func(s *Snapshot) { s.Phase, s.Probe = 3, sampleSnapshot().Probe },
	} {
		s := streamSnapshot()
		mutate(s)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { mustCorrupt(t, new(Snapshot).readBytes(buf.Bytes()), "stream") })
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.lckp"))
	if err == nil {
		t.Fatal("Load of missing file succeeded")
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		t.Errorf("missing file misreported as corruption: %v", err)
	}
}

// TestAtomicWriteFileHonoursPerm: AtomicWriteFile gives its file the mode
// os.WriteFile gives a sibling with the same perm under the same umask.
func TestAtomicWriteFileHonoursPerm(t *testing.T) {
	dir := t.TempDir()
	for _, perm := range []os.FileMode{0o644, 0o600, 0o666} {
		path := filepath.Join(dir, fmt.Sprintf("atomic-%o", perm))
		plain := filepath.Join(dir, fmt.Sprintf("plain-%o", perm))
		if err := AtomicWriteFile(path, []byte("x\n"), perm); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(plain, []byte("x\n"), perm); err != nil {
			t.Fatal(err)
		}
		got, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.Stat(plain)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode().Perm() != want.Mode().Perm() {
			t.Errorf("perm %o: mode %v, want %v", perm, got.Mode().Perm(), want.Mode().Perm())
		}
	}
}
