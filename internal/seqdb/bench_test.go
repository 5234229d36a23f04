package seqdb

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/pattern"
)

// benchSeqs is the scan benchmark's database: 30,000 sequences of 40–80
// symbols over 20, as many sequences as the disk-probe store.
func benchSeqs() [][]pattern.Symbol {
	rng := rand.New(rand.NewSource(1))
	seqs := make([][]pattern.Symbol, 30000)
	for i := range seqs {
		s := make([]pattern.Symbol, 40+rng.Intn(41))
		for j := range s {
			s[j] = pattern.Symbol(rng.Intn(20))
		}
		seqs[i] = s
	}
	return seqs
}

// BenchmarkScan times one full pass over the same sequences in each format
// a workload scans: LSQ2 (the disk stores), LSQZ and LSA1 (the append log).
func BenchmarkScan(b *testing.B) {
	seqs := benchSeqs()
	dir := b.TempDir()
	mem := NewMemDB(seqs)
	lsa := filepath.Join(dir, "db.lsa")
	log, err := CreateAppend(lsa)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range seqs {
		if _, err := log.Append(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	files := []struct{ name, path string }{
		{"lsq2", filepath.Join(dir, "db.lsq")},
		{"lsqz", filepath.Join(dir, "db.lsqz")},
		{"lsa1", lsa},
	}
	if err := WriteFile(files[0].path, mem); err != nil {
		b.Fatal(err)
	}
	if err := WriteGzipFile(files[1].path, mem); err != nil {
		b.Fatal(err)
	}
	for _, file := range files {
		b.Run(file.name, func(b *testing.B) {
			db, err := OpenAuto(file.path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0
				err := db.Scan(func(_ int, seq []pattern.Symbol) error {
					total += len(seq)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
