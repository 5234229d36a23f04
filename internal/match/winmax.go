package match

import (
	"math"

	"repro/internal/pattern"
)

// The window maxima. A pattern's match in a sequence is the maximum of its
// window products (Definitions 3.5–3.6), and every kernel ends in such a
// maximum: the probe tree's per-pattern maxima (maxOf, maxMul), the class
// table of a profile walk (classMax) and each sibling's best over windows
// or classes (maxMulGather).
//
// Each maximum is taken on the bit patterns. A window product is a product
// of compatibilities, so it is +0 or positive and never NaN: compat.New
// stores a -0 cell as +0, compat.NewSparse rejects P <= 0, and a product of
// such factors is never -0. For IEEE-754 values at or above +0 that are not
// NaN, the order of the bit patterns read as uint64 is the float order, so
// math.Float64bits maps the float maximum onto the integer max, which
// compiles to a compare and a conditional move: no branch for noisy
// products to mispredict. A maximum is exact in any order, so taking it in
// four independent accumulators gives the float one accumulator would.
//
// Go's builtin max on float64 is no substitute: it must order NaNs and
// signed zeros, which costs several instructions per call, and a
// one-accumulator maxMul written with it ran about 2.4× slower than the
// branching loop it would replace.

// maxOf returns the largest of v, +0 for none.
func maxOf(v []float64) float64 {
	var b0, b1, b2, b3 uint64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		x := v[i : i+4 : i+4]
		b0 = max(b0, math.Float64bits(x[0]))
		b1 = max(b1, math.Float64bits(x[1]))
		b2 = max(b2, math.Float64bits(x[2]))
		b3 = max(b3, math.Float64bits(x[3]))
	}
	for ; i < len(v); i++ {
		b0 = max(b0, math.Float64bits(v[i]))
	}
	return math.Float64frombits(max(b0, b1, b2, b3))
}

// maxMul returns the largest src[i]*fac[i], +0 for none.
func maxMul(src, fac []float64) float64 {
	fac = fac[:len(src)]
	var b0, b1, b2, b3 uint64
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s, f := src[i:i+4:i+4], fac[i:i+4:i+4]
		b0 = max(b0, math.Float64bits(s[0]*f[0]))
		b1 = max(b1, math.Float64bits(s[1]*f[1]))
		b2 = max(b2, math.Float64bits(s[2]*f[2]))
		b3 = max(b3, math.Float64bits(s[3]*f[3]))
	}
	for ; i < len(src); i++ {
		b0 = max(b0, math.Float64bits(src[i]*fac[i]))
	}
	return math.Float64frombits(max(b0, b1, b2, b3))
}

// maxMulGather returns the largest vals[i]*row[syms[i]], +0 for none: a
// child's best over its parent's windows (or class maxima) and the
// symbols observed at its extension offset.
func maxMulGather(vals, row []float64, syms []pattern.Symbol) float64 {
	syms = syms[:len(vals)]
	var b0, b1, b2, b3 uint64
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		v, s := vals[i:i+4:i+4], syms[i:i+4:i+4]
		b0 = max(b0, math.Float64bits(v[0]*row[s[0]]))
		b1 = max(b1, math.Float64bits(v[1]*row[s[1]]))
		b2 = max(b2, math.Float64bits(v[2]*row[s[2]]))
		b3 = max(b3, math.Float64bits(v[3]*row[s[3]]))
	}
	for ; i < len(vals); i++ {
		b0 = max(b0, math.Float64bits(vals[i]*row[syms[i]]))
	}
	return math.Float64frombits(max(b0, b1, b2, b3))
}

// classMax raises cm[obs[i]] to the bits of prods[i]: the class table of a
// profile walk, one entry per alphabet symbol, each the bits of the largest
// product observed with that symbol.
func classMax(cm []uint64, prods []float64, obs []pattern.Symbol) {
	obs = obs[:len(prods)]
	for i, p := range prods {
		o := obs[i]
		cm[o] = max(cm[o], math.Float64bits(p))
	}
}

// sweepClasses appends each class of cm holding a product above +0 to syms
// and vals, in symbol order, zeroing the table for the next sequence, and
// returns them with the largest class maximum.
func sweepClasses(cm []uint64, syms []pattern.Symbol, vals []float64) ([]pattern.Symbol, []float64, float64) {
	var best uint64
	for o, c := range cm {
		if c != 0 {
			syms = append(syms, pattern.Symbol(o))
			vals = append(vals, math.Float64frombits(c))
			best = max(best, c)
			cm[o] = 0
		}
	}
	return syms, vals, math.Float64frombits(best)
}
