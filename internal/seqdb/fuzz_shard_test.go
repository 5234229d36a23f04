package seqdb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pattern"
)

// Shard kinds FuzzOpenShardSet builds.
const (
	shardValid     = iota // an LSQ2 file of the chunk's sequences
	shardTruncated        // that file cut short
	shardGarbage          // the chunk's bytes as they are
	shardMissing          // no file at the path
)

// fuzzSequences decodes b into sequences: each byte is a symbol (b>>1), and
// a set low bit ends the current sequence.
func fuzzSequences(b []byte) [][]pattern.Symbol {
	var out [][]pattern.Symbol
	var cur []pattern.Symbol
	for i, c := range b {
		cur = append(cur, pattern.Symbol(c>>1))
		if c&1 == 1 || i == len(b)-1 {
			out = append(out, cur)
			cur = nil
		}
	}
	return out
}

// FuzzOpenShardSet opens shard sets of 1–4 files built from fuzz bytes:
// layout's low two bits give the shard count and each next pair of bits a
// shard's kind (valid LSQ2, truncated LSQ2, raw bytes, or missing), and data
// is split evenly into the shards' contents. Opening must not panic, and a
// failure must name the first shard that does not open on its own or whose
// length overflows the set's count. An opened
// set's Len is the sum of its shards' lengths, and a scan delivers global ids
// in order: every sequence of a valid shard as written, and an error only
// from a shard that is not valid, naming its file.
func FuzzOpenShardSet(f *testing.F) {
	layout := func(kinds ...int) uint16 {
		l := uint16(len(kinds) - 1)
		for i, k := range kinds {
			l |= uint16(k) << (2 + 2*i)
		}
		return l
	}
	f.Add(layout(shardValid, shardValid, shardValid, shardValid), []byte("\x02\x04\x07\x09\x0a\x0b\x10\x11"))
	f.Add(layout(shardValid, shardTruncated), []byte("\x02\x04\x07\x09\x0a\x0b"))
	f.Add(layout(shardValid, shardGarbage), []byte("\x03LSQ1\x05\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(layout(shardGarbage, shardValid), []byte("LSQ2\x00\x00\x00\x00\x00\x00\x00\x80\x05\x07"))
	f.Add(layout(shardValid, shardMissing, shardValid), []byte("\x02\x05\x07"))
	f.Add(layout(shardGarbage), []byte{})
	f.Add(layout(shardGarbage), []byte("LSQ1\x00\x00\x00\x00\x00\x00\x00\x80")) // 2⁶³ sequences, none there
	f.Add(layout(shardGarbage, shardGarbage), []byte("LSQ1\x00\x00\x00\x00\x00\x00\x00\x40LSQ1\x00\x00\x00\x00\x00\x00\x00\x40"))
	f.Fuzz(func(t *testing.T, layout uint16, data []byte) {
		dir := t.TempDir()
		shards := 1 + int(layout&3)
		paths := make([]string, shards)
		kinds := make([]int, shards)
		written := make([][][]pattern.Symbol, shards)
		for i := range paths {
			paths[i] = filepath.Join(dir, fmt.Sprintf("part%d.lsq", i))
			kinds[i] = int(layout>>(2+2*i)) & 3
			chunk := data[i*len(data)/shards : (i+1)*len(data)/shards]
			switch kinds[i] {
			case shardValid, shardTruncated:
				written[i] = fuzzSequences(chunk)
				if err := WriteFile(paths[i], NewMemDB(written[i])); err != nil {
					t.Fatal(err)
				}
				if kinds[i] == shardTruncated {
					raw, err := os.ReadFile(paths[i])
					if err != nil {
						t.Fatal(err)
					}
					cut := len(raw) - 1
					if len(chunk) > 0 {
						cut = int(chunk[0]) % len(raw)
					}
					if err := os.WriteFile(paths[i], raw[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
				}
			case shardGarbage:
				if err := os.WriteFile(paths[i], chunk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Each shard on its own: the first that fails to open, or whose length
		// overflows the set's count, must fail the set.
		firstBad, total := -1, 0
		for i, p := range paths {
			db, err := OpenAuto(p)
			if err != nil && kinds[i] == shardValid {
				t.Fatalf("valid shard %d does not open: %v", i, err)
			}
			if err == nil && kinds[i] == shardMissing {
				t.Fatalf("missing shard %d opened", i)
			}
			if firstBad >= 0 {
				continue
			}
			if err != nil || db.Len() > math.MaxInt-total {
				firstBad = i
				continue
			}
			total += db.Len()
		}
		sh, err := OpenShardSet(paths)
		if firstBad >= 0 {
			if err == nil {
				t.Fatalf("shard set opened although shard %d does not", firstBad)
			}
			if want := fmt.Sprintf("shard %d:", firstBad); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name shard %d", err, firstBad)
			}
			return
		}
		if err != nil {
			t.Fatalf("every shard opens on its own, the set does not: %v", err)
		}
		if sh.Len() != total {
			t.Fatalf("shard set Len %d, shards sum to %d", sh.Len(), total)
		}

		next := 0
		shard := 0
		err = sh.Scan(func(id int, seq []pattern.Symbol) error {
			if id != next {
				t.Fatalf("scan delivered id %d, want %d", id, next)
			}
			next++
			for id >= sh.ShardStart(shard+1) {
				shard++
			}
			if len(seq) == 0 {
				t.Fatalf("id %d: empty sequence", id)
			}
			if kinds[shard] == shardValid {
				if want := written[shard][id-sh.ShardStart(shard)]; !reflect.DeepEqual(seq, want) {
					t.Fatalf("id %d (shard %d): got %v, wrote %v", id, shard, seq, want)
				}
			}
			return nil
		})
		if err == nil {
			if next != sh.Len() {
				t.Fatalf("scan delivered %d sequences, Len is %d", next, sh.Len())
			}
			return
		}
		for i, p := range paths {
			if kinds[i] != shardValid && strings.Contains(err.Error(), p) {
				return
			}
		}
		t.Fatalf("scan error %q names no damaged shard", err)
	})
}
