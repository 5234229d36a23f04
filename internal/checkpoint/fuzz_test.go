package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCheckpointReadFrom checks that parsing arbitrary bytes as a snapshot
// never panics: it either yields a valid snapshot or a typed *CorruptError
// naming the damaged section (mirroring internal/seqdb's FuzzDiskScan).
func FuzzCheckpointReadFrom(f *testing.F) {
	seeds := []*Snapshot{
		sampleSnapshot(),
		{
			ConfigHash:  1,
			Engine:      "sweep",
			Phase:       1,
			DBLen:       1,
			SymbolMatch: []float64{0.1},
			Sample:      nil,
		},
		streamSnapshot(),
	}
	for _, s := range seeds {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// A truncated and a bit-flipped variant widen initial coverage.
		f.Add(buf.Bytes()[:buf.Len()/2])
		flipped := append([]byte{}, buf.Bytes()...)
		flipped[buf.Len()/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte("LCKPgarbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Snapshot{}
		_, err := s.ReadFrom(bytes.NewReader(data))
		if err == nil {
			// Accepted input must satisfy the cross-section invariants and
			// re-serialize cleanly.
			if s.Phase < 1 || s.Phase > 3 {
				t.Fatalf("accepted snapshot with phase %d", s.Phase)
			}
			var buf bytes.Buffer
			if _, werr := s.WriteTo(&buf); werr != nil {
				t.Fatalf("accepted snapshot does not re-serialize: %v", werr)
			}
			return
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("rejection is not a *CorruptError: %T: %v", err, err)
		}
		if ce.Section == "" {
			t.Fatalf("CorruptError without a section name: %v", err)
		}
	})
}
