package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// recipe is a datagen database recipe: a protein-like background with
// planted motifs, passed through uniform noise.
type recipe struct {
	n, minLen, maxLen, m int
	motifs, motifLen     int
	plant, alpha         float64
	// motifSeed draws the planted motifs. It is fixed per workload, so runs
	// at different seeds mine databases of one shape and their figures
	// spread less; the run seed draws backgrounds, plant sites and noise.
	motifSeed int64
}

// scaled shrinks the sequence count for smoke tests.
func (r recipe) scaled(scale float64) recipe {
	r.n = max(1, int(math.Round(float64(r.n)*scale)))
	return r
}

// generate builds the recipe's noisy sequences and its compatibility matrix.
func (r recipe) generate(seed int64) ([][]pattern.Symbol, *compat.Matrix, error) {
	motifs := datagen.RandomMotifs(r.motifs, r.motifLen, r.m, rand.New(rand.NewSource(r.motifSeed)))
	rng := rand.New(rand.NewSource(seed))
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: r.n, M: r.m, MinLen: r.minLen, MaxLen: r.maxLen,
		Motifs: motifs, PlantProb: r.plant,
	}, rng)
	if err != nil {
		return nil, nil, err
	}
	noisy, err := datagen.ApplyUniformNoise(std, r.m, r.alpha, rng)
	if err != nil {
		return nil, nil, err
	}
	seqs := make([][]pattern.Symbol, 0, noisy.Len())
	for i := 0; i < noisy.Len(); i++ {
		seqs = append(seqs, noisy.Seq(i))
	}
	c, err := compat.UniformNoise(r.m, r.alpha)
	if err != nil {
		return nil, nil, err
	}
	return seqs, c, nil
}

// digest fingerprints generated sequences.
func digest(seqs [][]pattern.Symbol) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	for _, s := range seqs {
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(len(s)))])
		for _, sym := range s {
			h.Write(buf[:binary.PutUvarint(buf[:], uint64(sym))])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedDigests are the digests of each workload's full-size inputs at the
// default seed 1. A change to internal/datagen or to a recipe changes them
// and fails the run loudly instead of silently changing the workload; update
// them only together with a note that the workload changed.
var pinnedDigests = map[string]string{
	"disk-probe":    "bdf0cd00dad3c38610447ec578563e9fb36b15c903b51781d0b0ee378306b51b",
	"long-low":      "a7a9afbcc2a35ef0b3687a3aa4f21216ed2a8dea96a9c875d787847c27ce22cd",
	"ingest-follow": "2305904375e4da491c14a2a97209d077fd077eab6bac52142a986e7764d87576",
}

// checkPinned fails when the default seed no longer yields the pinned inputs.
func checkPinned(o options, name string, seqs [][]pattern.Symbol) error {
	if o.seed != 1 || o.scale != 1 {
		return nil
	}
	if got, want := digest(seqs), pinnedDigests[name]; got != want {
		return fmt.Errorf("%s inputs at seed 1 have digest %s, pinned %s: internal/datagen or the recipe changed", name, got, want)
	}
	return nil
}

// keys returns a pattern set's keys, sorted.
func keys(s *pattern.Set) []string {
	out := make([]string, 0, s.Len())
	s.ForEach(func(p pattern.Pattern) bool {
		out = append(out, p.Key())
		return true
	})
	sort.Strings(out)
	return out
}

// sameSet reports how got differs from want; both are sorted keys.
func sameSet(got, want []string) error {
	in := make(map[string]bool, len(want))
	for _, k := range want {
		in[k] = true
	}
	var extra []string
	for _, k := range got {
		if !in[k] {
			extra = append(extra, k)
		}
		delete(in, k)
	}
	if len(extra) == 0 && len(in) == 0 && len(got) == len(want) {
		return nil
	}
	missing := make([]string, 0, len(in))
	for k := range in {
		missing = append(missing, k)
	}
	sort.Strings(missing)
	return fmt.Errorf("frequent set differs from the exact set: %d missing %v, %d extra %v",
		len(missing), head(missing), len(extra), head(extra))
}

func head(ks []string) []string { return ks[:min(len(ks), 3)] }

// refCache stores exact reference sets on disk, keyed by a digest of the
// sequences plus the mining parameters, so a seed's reference is computed
// once per checkout.
type refCache struct{ dir string }

func (rc refCache) exact(seqs [][]pattern.Symbol, params string, compute func(*seqdb.MemDB) ([]string, error)) ([]string, error) {
	sum := sha256.Sum256([]byte(digest(seqs) + "|" + params))
	path := filepath.Join(rc.dir, hex.EncodeToString(sum[:16])+".json")
	if data, err := os.ReadFile(path); err == nil {
		var ks []string
		if err := json.Unmarshal(data, &ks); err == nil {
			return ks, nil
		}
	}
	ks, err := compute(seqdb.NewMemDB(seqs))
	if err != nil {
		return nil, fmt.Errorf("exact reference: %w", err)
	}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(ks)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, err
	}
	return ks, os.Rename(tmp, path)
}

// params renders mining parameters for a cache key.
func params(fields ...any) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = fmt.Sprint(f)
	}
	return strings.Join(parts, "|")
}
