package stream

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// sameState reports how two stream states differ, with the symbol and
// exact sums compared bit for bit. It returns "" when they agree.
func sameState(got, want *State) string {
	switch {
	case got.Cursor != want.Cursor || got.WindowStart != want.WindowStart:
		return "consumed windows differ"
	case !reflect.DeepEqual(got.Sample, want.Sample):
		return "samples differ"
	case len(got.SymbolSums) != len(want.SymbolSums) || len(got.ExactSums) != len(want.ExactSums):
		return "sum counts differ"
	}
	for d, w := range want.SymbolSums {
		if math.Float64bits(got.SymbolSums[d]) != math.Float64bits(w) {
			return "symbol sums differ"
		}
	}
	for key, w := range want.ExactSums {
		g, ok := got.ExactSums[key]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return "exact sum of " + key + " differs"
		}
	}
	return ""
}

// sameResult reports how two Advance results differ: sets, symbol matches,
// counts and the mine bit for bit. It returns "" when they agree.
func sameResult(got, want *Result) string {
	if !reflect.DeepEqual(got.Frequent.Patterns(), want.Frequent.Patterns()) ||
		!reflect.DeepEqual(got.Border.Patterns(), want.Border.Patterns()) {
		return "frequent sets or borders differ"
	}
	if !reflect.DeepEqual(got.SymbolMatch, want.SymbolMatch) {
		return "symbol matches differ"
	}
	if got.SampleSize != want.SampleSize || got.Appended != want.Appended || got.Expired != want.Expired ||
		got.Total != want.Total || got.Replaced != want.Replaced || got.Remined != want.Remined {
		return "counts differ"
	}
	return sameMine(got.Phase2, want.Phase2)
}

// TestFailedIngestIsRedone fails an Advance's scan partway through its
// batch: a context that reports cancellation at its 12th check, while 40
// appended sequences are read. The failed Advance must leave the stream as
// it was, and the next one must equal an uninterrupted stream's: its
// State, with the symbol and exact sums compared bit for bit, and its
// Result.
func TestFailedIngestIsRedone(t *testing.T) {
	c, err := compat.UniformNoise(5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	kc := newKeptCase(t, 5, 70, 80)
	kc.cfg.C = c
	logA, logB := createLog(t), createLog(t)
	a, err := New(logA, kc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(logB, kc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, half := range [][][]pattern.Symbol{kc.seqs[:40], kc.seqs[40:80]} {
		for _, log := range []*seqdb.AppendDB{logA, logB} {
			for _, seq := range half {
				if _, err := log.Append(seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		if a.Cursor() == 40 {
			before := a.State()
			if _, err := a.Advance(&levelCtx{Context: ctx, calls: 11}); !errors.Is(err, context.Canceled) {
				t.Fatalf("an Advance cancelled at its 12th check returned %v", err)
			}
			if diff := sameState(a.State(), before); diff != "" {
				t.Fatalf("a failed ingest changed the stream: %s", diff)
			}
		}
		x, err := a.Advance(ctx)
		if err != nil {
			t.Fatal(err)
		}
		y, err := b.Advance(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(x, y); diff != "" {
			t.Fatalf("after %d sequences: %s", a.Cursor(), diff)
		}
		if diff := sameState(a.State(), b.State()); diff != "" {
			t.Fatalf("after %d sequences: %s", a.Cursor(), diff)
		}
	}
	if len(a.State().ExactSums) == 0 {
		t.Fatal("no pattern was probed, so no exact sum was extended")
	}
}

// TestIngestRejectsSymbolOutsideAlphabet appends a sequence holding symbol 9
// to a stream mined with a 5-symbol matrix, in a batch after one it
// consumed, and then expires the log's head. Each Advance must fail with an
// error naming the sequence, the symbol and its position, and consume
// nothing: the stream's State is unchanged, whether the batch is read
// incrementally or the window rebuilt.
func TestIngestRejectsSymbolOutsideAlphabet(t *testing.T) {
	kc := newKeptCase(t, 4, 30, 60)
	log := createLog(t)
	s, err := New(log, kc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range kc.seqs[:40] {
		if _, err := log.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := s.Advance(ctx); err != nil {
		t.Fatal(err)
	}
	for _, seq := range append(kc.seqs[40:45:45], []pattern.Symbol{0, 1, 9, 2}, kc.seqs[45]) {
		if _, err := log.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
	for _, expire := range []bool{false, true} {
		if expire {
			if err := log.ExpireBefore(10); err != nil {
				t.Fatal(err)
			}
		}
		before := s.State()
		_, err := s.Advance(ctx)
		var ae *match.AlphabetError
		if !errors.As(err, &ae) || ae.Symbol != 9 || ae.Pos != 2 ||
			!strings.Contains(err.Error(), "sequence 45: match: symbol 9 at position 2") {
			t.Fatalf("expired %v: Advance returned %v, want symbol 9 of sequence 45 rejected", expire, err)
		}
		if diff := sameState(s.State(), before); diff != "" {
			t.Fatalf("expired %v: a rejected batch changed the stream: %s", expire, diff)
		}
	}
}

// TestExactSumsExtendInOrder replays logs of 30 or more Advances at Workers
// 1, 2 and 3, and with the score budget forced down to a few members, so
// the extension runs in member chunks. After every Advance each exact sum
// must equal, bit for bit, an in-order SoASet.Accumulate of its pattern
// over the consumed window.
func TestExactSumsExtendInOrder(t *testing.T) {
	defer func(b int) { scoreBytes = b }(scoreBytes)
	for _, workers := range []int{1, 2, 3} {
		for _, budget := range []int{4 << 20, 3 * 8 * 16} {
			scoreBytes = budget
			kc := newKeptCase(t, int64(workers), 50, 700)
			kc.cfg.Workers = workers
			log := createLog(t)
			s, err := New(log, kc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			lo, advances, extended := 0, 0, 0
			for _, n := range kc.batches {
				for _, seq := range kc.seqs[lo : lo+n] {
					if _, err := log.Append(seq); err != nil {
						t.Fatal(err)
					}
				}
				lo += n
				before := len(s.exactSums)
				if _, err := s.Advance(context.Background()); err != nil {
					t.Fatal(err)
				}
				advances++
				extended += before
				st := s.State()
				keys, ps, err := parseSorted(st.ExactSums)
				if err != nil {
					t.Fatal(err)
				}
				set, err := match.CompileSoA(kc.cfg.C, ps)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, len(ps))
				set.Accumulate(want, kc.seqs[st.WindowStart:st.Cursor])
				for i, key := range keys {
					if math.Float64bits(st.ExactSums[key]) != math.Float64bits(want[i]) {
						t.Fatalf("workers %d, budget %d, advance %d: exact sum of %s is %v, an in-order scan gives %v",
							workers, budget, advances, key, st.ExactSums[key], want[i])
					}
				}
			}
			if advances < 30 || extended == 0 {
				t.Fatalf("workers %d: %d advances extended %d sums: the replay exercised too little", workers, advances, extended)
			}
		}
	}
}
