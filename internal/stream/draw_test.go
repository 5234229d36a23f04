package stream

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// referenceDraw is the reservoir draw by its definition, as the stream
// computed it before the closed form: seed a math/rand source and read it.
func referenceDraw(seed int64, rel int) int {
	rng := rand.New(rand.NewSource(seed ^ int64(uint64(rel+1)*0x9E3779B97F4A7C15)))
	return rng.Intn(rel + 1)
}

// pinnedDraws were computed with the seeding draw, before the closed form
// existed. reads is the number of Int31 outputs Intn(rel+1) reads (-1: the
// Int63n path), so rows with 1 to drawRounds reads are answered in closed form
// and the rest fall back to seeding.
var pinnedDraws = []struct {
	seed      int64
	rel, want int
	reads     int
}{
	{42, 0, 0, 1}, // rel 0
	{-1, 0, 0, 1},
	{math.MinInt64, 0, 0, 1},
	{7, 1, 0, 1},                 // n = 2
	{5, 1023, 841, 1},            // n = 2¹⁰
	{-9, 1<<20 - 1, 356728, 1},   // n = 2²⁰
	{5, 1<<30 - 1, 189101014, 1}, // n = 2³⁰
	{42, 999, 952, 1},            // reservoir-sized indices
	{5, 20000, 15871, 1},
	{61, 123456, 34504, 1},
	{-1, 20000, 1420, 1}, // negative seeds
	{math.MinInt64, 54321, 15818, 1},
	{math.MaxInt64, 54321, 39041, 1},
	{-123456789, 1000000, 448512, 1},
	{-6419047483690766819, 1000, 509, 1}, // the seed equals the rel mix: reduced seed 0, replaced by 89482311
	{5493606159525373109, 20000, 11790, 1},
	{-3127770021663414227, 777, 610, 1}, // mixed seed 2³¹−1: reduced seed 0 again
	{1000, 1 << 30, 52197765, 2},        // n = 2³⁰+1: about half the outputs are rejected
	{1002, 1 << 30, 255719045, 3},
	{1011, 1 << 30, 550517037, 4},
	{1022, 1 << 30, 677841087, 5},
	{1083, 1 << 30, 637237945, 6},
	{186, 1 << 30, 983479138, 7},
	{221, 1 << 30, 750963144, 8}, // the last closed-form output
	{304, 1 << 30, 633820757, 9}, // eight rejections: fallback
	{33091, 1 << 30, 250671521, 16},
	{279, 1<<30 + 5, 909695657, 8}, // n = 2³⁰+6
	{583, 1<<30 + 5, 638848014, 10},
	{31, 1431655765, 1213960947, 8}, // n ≈ 2³²/3
	{3427, 1431655765, 272103112, 9},
	{5, 1<<31 - 3, 128538432, 1},   // n = 2³¹−2
	{-5, 1<<31 - 2, 2082924441, 1}, // n = 2³¹−1, the largest Int31n
	{5, 1<<31 - 1, 237702260, -1},  // n = 2³¹: Int63n, fallback
	{-5, 1 << 31, 884549876, -1},   // n = 2³¹+1
	{5, 1 << 40, 158814480366, -1}, // n = 2⁴⁰+1
}

// TestDrawIndexPinned checks drawIndex, its closed form and the reference
// against values computed before the closed form, and that the table reaches
// every closed-form output and both fallbacks.
func TestDrawIndexPinned(t *testing.T) {
	seen := map[int]bool{}
	for _, c := range pinnedDraws {
		if got := referenceDraw(c.seed, c.rel); got != c.want {
			t.Fatalf("reference draw (%d, %d) = %d, pinned %d", c.seed, c.rel, got, c.want)
		}
		if got := drawIndex(c.seed, c.rel); got != c.want {
			t.Errorf("drawIndex(%d, %d) = %d, pinned %d", c.seed, c.rel, got, c.want)
		}
		j, ok := closedDraw(c.seed, c.rel)
		if closed := c.reads >= 1 && c.reads <= drawRounds; ok != closed {
			t.Errorf("closedDraw(%d, %d) answered %v, want %v (%d reads)", c.seed, c.rel, ok, closed, c.reads)
		} else if ok && j != c.want {
			t.Errorf("closedDraw(%d, %d) = %d, pinned %d", c.seed, c.rel, j, c.want)
		}
		seen[min(c.reads, drawRounds+1)] = true
	}
	for reads := -1; reads <= drawRounds+1; reads++ {
		if reads != 0 && !seen[reads] {
			t.Errorf("no pinned draw reads %d outputs", reads)
		}
	}
}

// TestDrawIndexSweep compares drawIndex with the reference over random seeds
// in bands of rel: reservoir-sized, up to 2²⁴, just above 2³⁰ (half of all
// outputs rejected, so the eight-rejection fallback runs), just below 2³¹−1,
// powers of two, and past 2³¹−1 (Int63n).
func TestDrawIndexSweep(t *testing.T) {
	const perBand = 4000
	rng := rand.New(rand.NewSource(1))
	bands := []struct {
		name string
		rel  func() int
	}{
		{"reservoir", func() int { return rng.Intn(1 << 17) }},
		{"2^24", func() int { return rng.Intn(1 << 24) }},
		{"above 2^30", func() int { return 1<<30 + rng.Intn(1<<20) }},
		{"below 2^31-1", func() int { return 1<<31 - 2 - rng.Intn(1<<20) }},
		{"powers of two", func() int { return 1<<rng.Intn(31) - 1 }},
		{"Int63n", func() int { return 1<<31 - 1 + rng.Intn(1<<33) }},
	}
	closed, fallback := 0, 0
	for _, band := range bands {
		for i := 0; i < perBand; i++ {
			seed, rel := int64(rng.Uint64()), band.rel()
			want := referenceDraw(seed, rel)
			if got := drawIndex(seed, rel); got != want {
				t.Fatalf("%s: drawIndex(%d, %d) = %d, reference %d", band.name, seed, rel, got, want)
			}
			if _, ok := closedDraw(seed, rel); ok {
				closed++
			} else if rel < lehmerMod {
				fallback++
			}
		}
	}
	if closed == 0 || fallback == 0 {
		t.Fatalf("the sweep answered %d draws in closed form and %d after eight rejections; want both", closed, fallback)
	}
}

// TestDrawIndexAllocs: the closed-form draw allocates nothing.
func TestDrawIndexAllocs(t *testing.T) {
	rel := 20000
	if n := testing.AllocsPerRun(100, func() { rel += drawIndex(5, rel) & 1 }); n != 0 {
		t.Fatalf("drawIndex allocates %v times per draw", n)
	}
}

// TestResultReplaced: a batch reports the reservoir members its appends
// replaced, each forcing a re-mine, and stream_replaced sums them; a window
// rebuild redraws the reservoir and reports none.
func TestResultReplaced(t *testing.T) {
	for _, window := range []int{0, 12} {
		log, err := seqdb.CreateAppend(filepath.Join(t.TempDir(), "log.lsa"))
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		m := &telemetry.Metrics{}
		cfg := Config{C: compat.Identity(3), MinMatch: 0.3, SampleSize: 4, MaxLen: 2, Seed: 9, Window: window, Metrics: m}
		s, err := New(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for batch := 0; batch < 8; batch++ {
			want := 0
			for i := 0; i < 5; i++ {
				rel := log.Total() - log.Start()
				if _, err := log.Append([]pattern.Symbol{pattern.Symbol(rel % 3), 1}); err != nil {
					t.Fatal(err)
				}
				if rel >= cfg.SampleSize && drawIndex(cfg.Seed, rel) < cfg.SampleSize {
					want++
				}
			}
			res, err := s.Advance(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Expired > 0 {
				want = 0
			}
			if res.Replaced != want || (want > 0 && !res.Remined) {
				t.Fatalf("window %d batch %d: replaced %d (remined %v), want %d", window, batch, res.Replaced, res.Remined, want)
			}
			total += want
		}
		if window == 0 && total == 0 {
			t.Fatal("no batch replaced a reservoir member")
		}
		if got := m.Snapshot().StreamReplaced; got != int64(total) {
			t.Fatalf("window %d: stream_replaced %d, batches replaced %d", window, got, total)
		}
	}
}

func FuzzDrawIndex(f *testing.F) {
	for _, c := range pinnedDraws {
		if c.rel <= math.MaxUint32 {
			f.Add(c.seed, uint32(c.rel))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, rel uint32) {
		if got, want := drawIndex(seed, int(rel)), referenceDraw(seed, int(rel)); got != want {
			t.Fatalf("drawIndex(%d, %d) = %d, reference %d", seed, rel, got, want)
		}
	})
}

var drawSink int

// BenchmarkDrawIndex times one draw at reservoir-sized indices, in closed
// form and by seeding a source.
func BenchmarkDrawIndex(b *testing.B) {
	for _, bc := range []struct {
		name string
		draw func(int64, int) int
	}{
		{"closed", drawIndex},
		{"seeded", referenceDraw},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += bc.draw(5, 20000+i%100000)
			}
			drawSink = sum
		})
	}
}
