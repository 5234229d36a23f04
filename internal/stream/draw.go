package stream

import "math/rand"

// The reservoir's draw for the rel-th sequence of the window is
//
//	rand.New(rand.NewSource(drawSeed(seed, rel))).Intn(rel + 1)
//
// a pure function of (seed, rel), so every replay, restore and window rebuild
// reproduces the sample. Seeding a math/rand source runs 1,841 steps of its
// Lehmer chain and allocates 5,376 bytes, only to read one or two outputs.
// drawIndex computes the same value in closed form from two facts about
// math/rand's source (rng.go; its regress test freezes the sequences):
//
//   - Seed reduces the seed to s in [1, 2³¹−2] (the seed mod 2³¹−1, with 0
//     replaced by 89482311) and fills vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20
//     ^ x[23+3i] ^ rngCooked[i], where x[j] = s·48271^j mod 2³¹−1 is
//     seedrand's chain.
//   - The k-th Int63 of a fresh source is (vec[333−k] + vec[606−k]) & (2⁶³−1)
//     for k < 334; Int31 keeps its top 31 bits.
//
// Intn(n) for n ≤ 2³¹−1 is Int31n(n): one masked output when n is a power of
// two, else rejection sampling. The first drawRounds outputs need only the
// chain powers of the vec entries they read and those entries of rngCooked
// (rngcooked.go). After drawRounds rejections, or when n > 2³¹−1 (Int63n's
// path), drawIndex falls back to seeding a source, which gives the same value
// at the full cost.

const (
	lehmerMod  = 1<<31 - 1 // seedrand's modulus, math/rand's int32max
	lehmerMul  = 48271     // seedrand's multiplier
	drawRounds = 8         // Int31 outputs computed in closed form
)

// vecTerm is what one entry vec[i] of a seeded source depends on besides the
// reduced seed: the chain powers 48271^(21+3i+t) mod 2³¹−1 for t = 0, 1, 2,
// and rngCooked[i].
type vecTerm struct {
	pow    [3]uint64
	cooked int64
}

// value returns vec[i] for reduced seed s.
func (v *vecTerm) value(s uint64) int64 {
	return int64(s*v.pow[0]%lehmerMod)<<40 ^ int64(s*v.pow[1]%lehmerMod)<<20 ^
		int64(s*v.pow[2]%lehmerMod) ^ v.cooked
}

// drawTerms[k] holds the two entries output k reads: vec[333−k] and
// vec[606−k].
var drawTerms = func() (t [drawRounds][2]vecTerm) {
	for k := range t {
		for h, i := range [2]int{333 - k, 606 - k} {
			for c := range t[k][h].pow {
				t[k][h].pow[c] = lehmerPow(21 + 3*i + c)
			}
		}
		t[k][0].cooked = rngCookedFeed[drawRounds-1-k]
		t[k][1].cooked = rngCookedTap[drawRounds-1-k]
	}
	return t
}()

// lehmerPow returns 48271^j mod 2³¹−1.
func lehmerPow(j int) uint64 {
	p, b := uint64(1), uint64(lehmerMul)
	for ; j > 0; j >>= 1 {
		if j&1 == 1 {
			p = p * b % lehmerMod
		}
		b = b * b % lehmerMod
	}
	return p
}

// drawIndex is the stateless Algorithm R draw for the rel-th window sequence:
// uniform on [0, rel], a pure function of (seed, rel), so any replay of the
// window reproduces the same reservoir.
func drawIndex(seed int64, rel int) int {
	if j, ok := closedDraw(seed, rel); ok {
		return j
	}
	return rand.New(rand.NewSource(drawSeed(seed, rel))).Intn(rel + 1)
}

// drawSeed is the seed of rel's draw: seed mixed with rel+1 by the 64-bit
// golden-ratio constant.
func drawSeed(seed int64, rel int) int64 {
	return seed ^ int64(uint64(rel+1)*0x9E3779B97F4A7C15)
}

// closedDraw computes the draw in closed form. ok is false when Intn would
// panic, take the Int63n path or read more than drawRounds outputs.
func closedDraw(seed int64, rel int) (j int, ok bool) {
	n := rel + 1
	if n < 1 || n > lehmerMod {
		return 0, false
	}
	s := drawSeed(seed, rel) % lehmerMod
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = 89482311
	}
	n32 := int32(n)
	if n32&(n32-1) == 0 {
		return int(drawOutput(uint64(s), 0) & (n32 - 1)), true
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(n32))
	for k := 0; k < drawRounds; k++ {
		if v := drawOutput(uint64(s), k); v <= limit {
			return int(v % n32), true
		}
	}
	return 0, false
}

// drawOutput is the k-th Int31 of a source seeded with reduced seed s.
func drawOutput(s uint64, k int) int32 {
	t := &drawTerms[k]
	return int32((uint64(t[0].value(s)+t[1].value(s)) & (1<<63 - 1)) >> 32)
}
