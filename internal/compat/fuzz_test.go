package compat

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/pattern"
)

// FuzzReadFrom checks the matrix text parser never panics and that every
// accepted matrix is valid, holds no -0 cell and round-trips.
func FuzzReadFrom(f *testing.F) {
	var seed bytes.Buffer
	if _, err := Fig2().WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("compat 1\n1\n"))
	f.Add([]byte("compat 2\n0.5 0\n0.5 1\n"))
	f.Add([]byte("compat 2\n1 -0\n-0 1\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("compat -3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < m.Size(); i++ {
			for j, v := range m.Row(pattern.Symbol(i)) {
				if math.Signbit(v) {
					t.Fatalf("cell (%d,%d) is -0", i, j)
				}
			}
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if back.Size() != m.Size() {
			t.Fatal("round trip changed size")
		}
	})
}
