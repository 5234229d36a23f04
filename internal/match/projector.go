// Projected sample databases: Phase 2's one store of window products. A
// Projection is one pattern's surviving window products over the whole
// sample — per sequence, the product of every window that can still host a
// right-extension. The level-wise kernel (Incremental) keeps the projections
// of one lattice level's parents and extends them into the next level's; the
// depth-first pattern-growth engine (internal/growth) holds one per lattice
// path. Both value candidates through the same calls, so both produce the
// same floats.
//
// The float discipline that makes every path bit-identical:
//
//   - window products are accumulated left to right (appendWindows /
//     appendProds for scratch builds, parent product × one row factor for
//     extensions), the association Compiled.Match and Sequence use;
//   - zero-product windows are dropped in sparse mode, every window is kept
//     in ramp mode (all-positive matrices), and a parent's windows are
//     clipped to those still wide enough for the child (a count in ramp
//     mode, a binary search on the ascending starts in sparse mode);
//   - per-candidate sample sums are accumulated per fixed 32-sequence shard
//     in ascending sequence order, shard partials are merged in ascending
//     shard order, and the merged sum is divided by the sample size.
//
// Value (per-pattern compiled matching) and ValueKids (one projection walk
// shared by siblings) follow the same discipline, so a candidate's value
// does not depend on which of them scored it.
//
// A Projector is immutable after construction (rows are pre-expanded), so
// any number of goroutines may Build, Extend, Value and walk projections
// concurrently.
package match

import (
	"repro/internal/compat"
	"repro/internal/pattern"
)

// Projector owns the shared, read-only state of a projected-database run:
// the sample, its fixed shard split, the expanded matrix rows, and each
// row's maximum (the optimistic extension factor behind bound-pruning).
type Projector struct {
	m      int
	sample [][]pattern.Symbol
	shards [][2]int // fixed contiguous [lo, hi) sequence ranges
	rc     *rowCache
	ramp   bool // no zero cells: every window survives, starts are implicit
	rowMax []float64
	// windows[l] is the number of length-l windows over the sample.
	windows []int64
}

// NewProjector builds a projector over a fixed in-memory sample. shardSize
// overrides the sequences-per-shard split (<= 0 selects the default of 32;
// changing it reassociates the float64 merge, so it is exposed mainly for
// tests). All matrix rows are expanded eagerly — after construction the
// projector is safe for concurrent use.
func NewProjector(c compat.Source, sample [][]pattern.Symbol, shardSize int) *Projector {
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	pj := &Projector{
		m:      c.Size(),
		sample: sample,
		rc:     newRowCache(c),
		ramp:   true,
		rowMax: make([]float64, c.Size()),
	}
	for lo := 0; lo < len(sample); lo += shardSize {
		hi := lo + shardSize
		if hi > len(sample) {
			hi = len(sample)
		}
		pj.shards = append(pj.shards, [2]int{lo, hi})
	}
	for d := 0; d < pj.m; d++ {
		row := pj.rc.row(pattern.Symbol(d))
		max := 0.0
		for _, v := range row {
			if v == 0 {
				pj.ramp = false
			} else if v > max {
				max = v
			}
		}
		pj.rowMax[d] = max
	}
	// A sequence of length L has L-l+1 windows of every length l <= L, so
	// windows[l] = windows[l+1] + (sequences at least l long).
	longest := 0
	for _, seq := range sample {
		longest = max(longest, len(seq))
	}
	count := make([]int64, longest+1)
	for _, seq := range sample {
		count[len(seq)]++
	}
	pj.windows = make([]int64, longest+2)
	var atLeast int64
	for l := longest; l >= 1; l-- {
		atLeast += count[l]
		pj.windows[l] = pj.windows[l+1] + atLeast
	}
	return pj
}

// SampleSize returns the number of sample sequences.
func (pj *Projector) SampleSize() int { return len(pj.sample) }

// RowMax returns the largest compatibility any observed symbol has with d —
// the optimistic factor a one-symbol extension by d can contribute.
func (pj *Projector) RowMax(d pattern.Symbol) float64 { return pj.rowMax[d] }

// WindowBytesBound is the worst-case bytes a length-l projection is charged,
// plus entryOverhead: the bound the level-wise kernel admits a parent's
// projection by. It depends only on the sample and l — never on worker
// scheduling — so the projected/scratch split is deterministic.
func (pj *Projector) WindowBytesBound(l int) int64 {
	var windows int64
	if l >= 1 && l < len(pj.windows) {
		windows = pj.windows[l]
	}
	return pj.charge(len(pj.sample)+len(pj.shards), windows) + entryOverhead
}

// charge is the bytes a block of offs offsets and windows reserved windows
// is charged. Builds charge what they reserve — not the capacity of a
// recycled array the block sits in — so the figure, and every admission
// decision it feeds, never depends on which retired array a build drew.
func (pj *Projector) charge(offs int, windows int64) int64 {
	per := int64(8) // prods
	if !pj.ramp {
		per += 4 // starts
	}
	return int64(offs)*4 + windows*per
}

// Value scores one pattern from scratch: compiled matching per sequence,
// summed per shard and merged in ascending shard order — the same floats
// ValueKids produces for the pattern as a child of its parent's projection.
func (pj *Projector) Value(p pattern.Pattern) (float64, error) {
	cp, err := compileWith(pj.rc, pj.m, p)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, sh := range pj.shards {
		part := 0.0
		for si := sh[0]; si < sh[1]; si++ {
			part += cp.Match(pj.sample[si])
		}
		total += part
	}
	if n := len(pj.sample); n > 0 {
		total /= float64(n)
	}
	return total, nil
}

// projShard is one shard's surviving windows, CSR-indexed: sequence i of the
// shard owns prods[offs[i]:offs[i+1]] (and the matching starts in sparse
// mode; in ramp mode starts is nil and window starts are the implicit
// 0,1,2,… ramp).
type projShard struct {
	offs   []int32
	starts []int32
	prods  []float64
}

// Projection is one pattern's window products over the whole sample — the
// projected database its right-extensions are valued against. Immutable
// after construction.
type Projection struct {
	pj     *Projector
	patLen int
	shards []projShard
	bytes  int64
}

// PatLen returns the projected pattern's total length.
func (pr *Projection) PatLen() int { return pr.patLen }

// Bytes returns the memory the projection is charged (see charge), the
// quantity the growth engine's path budget and the level-wise kernel's
// spine budget count.
func (pr *Projection) Bytes() int64 { return pr.bytes }

// windows counts the projection's surviving windows.
func (pr *Projection) windows() int64 {
	var n int64
	for s := range pr.shards {
		n += int64(len(pr.shards[s].prods))
	}
	return n
}

// BuildInto materializes p's projection from scratch (appendWindows /
// appendProds per sequence), so the window products carry the canonical
// left-to-right association. It writes into dst, a retired projection of pj
// whose arrays are reused where large enough; nil allocates a new one.
func (pj *Projector) BuildInto(dst *Projection, p pattern.Pattern) (*Projection, error) {
	cp, err := compileWith(pj.rc, pj.m, p)
	if err != nil {
		return nil, err
	}
	pr := pj.reset(dst, len(p))
	for s, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		bound := pj.shardWindowBound(lo, hi, len(p))
		kept := bound
		if pj.ramp {
			prods := reuse(sw.prods, bound)
			for si := lo; si < hi; si++ {
				prods = cp.appendProds(pj.sample[si], prods)
				sw.offs[si-lo+1] = int32(len(prods))
			}
			sw.prods = prods
		} else {
			starts, prods := reuse(sw.starts, bound), reuse(sw.prods, bound)
			for si := lo; si < hi; si++ {
				starts, prods = cp.appendWindows(pj.sample[si], starts, prods)
				sw.offs[si-lo+1] = int32(len(prods))
			}
			sw.starts, sw.prods, kept = compactWindows(starts, prods, bound)
		}
		pr.bytes += pj.charge(len(sw.offs), int64(kept))
	}
	return pr, nil
}

// reset readies dst — a retired projection of pj, or nil for a new one — to
// hold a length-patLen projection. Its arrays stay for the build to reuse:
// a build writes every offset and every window it keeps before reading it.
func (pj *Projector) reset(dst *Projection, patLen int) *Projection {
	if dst == nil {
		dst = &Projection{pj: pj, shards: make([]projShard, len(pj.shards))}
	}
	dst.patLen, dst.bytes = patLen, 0
	for s, sh := range pj.shards {
		n := sh[1] - sh[0] + 1
		sw := &dst.shards[s]
		sw.offs = reuse(sw.offs, n)[:n]
		sw.offs[0] = 0
	}
	return dst
}

// reuse returns buf emptied, or a new buffer when buf cannot hold n
// elements.
func reuse[T int32 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// compactWindows copies a sparse block into exact-size arrays when fewer
// than half its reserved windows survived, so it is charged for what it
// keeps, not the reservation. It returns the block and the windows charged.
func compactWindows(starts []int32, prods []float64, bound int) ([]int32, []float64, int) {
	if len(prods)*2 < bound {
		return append(make([]int32, 0, len(starts)), starts...),
			append(make([]float64, 0, len(prods)), prods...), len(prods)
	}
	return starts, prods, bound
}

// shardWindowBound counts the windows a length-l pattern can have across
// sequences [lo, hi) — the per-shard component of WindowBytesBound.
func (pj *Projector) shardWindowBound(lo, hi, l int) int {
	bound := 0
	for si := lo; si < hi; si++ {
		if w := len(pj.sample[si]) - l + 1; w > 0 {
			bound += w
		}
	}
	return bound
}

// clipShard bounds the windows of sequence si (shard-local index i) still
// wide enough to host a child of total length qLen: ramp mode clips the
// implicit ramp by count, sparse mode binary-searches the ascending starts.
func (pr *Projection) clipShard(sw *projShard, i int, seq []pattern.Symbol, qLen int) (int32, int32) {
	wlo, whi := sw.offs[i], sw.offs[i+1]
	if pr.pj.ramp {
		if lim := int32(len(seq) - qLen + 1); whi-wlo > lim {
			whi = wlo
			if lim > 0 {
				whi = wlo + lim
			}
		}
		return wlo, whi
	}
	limit := int32(len(seq) - qLen)
	if whi > wlo && sw.starts[whi-1] > limit {
		l, h := wlo, whi
		for l < h {
			if mid := (l + h) / 2; sw.starts[mid] > limit {
				h = mid
			} else {
				l = mid + 1
			}
		}
		whi = l
	}
	return wlo, whi
}

// ClipMax returns, per sample sequence, the maximum parent product over the
// windows still wide enough for a child of total length qLen (0 when none
// survive). One walk of the projection serves every sibling's optimistic
// bound at this length.
func (pr *Projection) ClipMax(qLen int) []float64 {
	out := make([]float64, len(pr.pj.sample))
	for s, sh := range pr.pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		for si := lo; si < hi; si++ {
			wlo, whi := pr.clipShard(sw, si-lo, pr.pj.sample[si], qLen)
			best := 0.0
			for w := wlo; w < whi; w++ {
				if v := sw.prods[w]; v > best {
					best = v
				}
			}
			out[si] = best
		}
	}
	return out
}

// Bound returns an optimistic upper bound on the sample match of any child
// whose extension row maximum is rowMax, from the ClipMax walk at the
// child's length. Soundness is float-exact: every factor of the true child
// value is dominated term by term (prod_w <= clip[si], row[obs] <= rowMax),
// float multiplication and addition are monotone, and both sums follow the
// identical shard-merge association — so Bound >= the child's Value in
// float64 arithmetic, and a Chernoff-infrequent bound proves the child
// infrequent without valuing it.
func (pr *Projection) Bound(clip []float64, rowMax float64) float64 {
	total := 0.0
	for _, sh := range pr.pj.shards {
		part := 0.0
		for si := sh[0]; si < sh[1]; si++ {
			part += clip[si] * rowMax
		}
		total += part
	}
	if n := len(pr.pj.sample); n > 0 {
		total /= float64(n)
	}
	return total
}

// ValueKids scores every right-extension of the projected pattern to total
// length qLen by the symbols ds — one walk of the projection shared by all
// siblings: per-sequence best over fl(parent product × row factor), summed
// per shard, merged in ascending shard order, divided by the sample size —
// bit for bit the floats Value computes for each child.
//
// For wide sibling groups the per-sequence max is computed by observed-symbol
// class instead of window by window: the windows a sequence offers a child
// partition by the observed symbol at the extension position, and within a
// class o the best child product is fl(max parent product × row[o]) — float
// multiplication by a fixed non-negative factor is monotone, so the class max
// commutes with the multiply and the per-sequence best over classes is the
// same float64 the window-by-window walk produces. One classification pass
// (O(windows), into a dense class table swept after each sequence) then
// serves every sibling at O(classes) each, instead of every sibling
// re-walking every window.
func (pr *Projection) ValueKids(qLen int, ds []pattern.Symbol) []float64 {
	pj := pr.pj
	out := make([]float64, len(ds))
	part := make([]float64, len(ds))
	krows := make([][]float64, len(ds))
	for i, d := range ds {
		krows[i] = pj.rc.row(d)
	}
	var cm []uint64
	var syms, obsBuf []pattern.Symbol
	var vals []float64
	if len(ds) >= 3 {
		cm = make([]uint64, pj.m)
		syms, vals = make([]pattern.Symbol, 0, pj.m), make([]float64, 0, pj.m)
	}
	for s, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		clear(part)
		for si := lo; si < hi; si++ {
			prods, obs := pr.clipped(sw, si-lo, pj.sample[si], qLen, &obsBuf)
			nw := len(prods)
			if nw == 0 {
				continue
			}
			// The class pass costs about two window walks, a sweep of the
			// alphabet and one walk of the classes per sibling, where the
			// direct walk costs one window walk per sibling; pick per
			// sequence.
			if cm != nil && nw*len(ds) > 2*nw+pj.m+min(nw, pj.m)*len(ds) {
				classMax(cm, prods, obs)
				syms, vals, _ = sweepClasses(cm, syms[:0], vals[:0])
				prods, obs = vals, syms // the siblings walk the classes
			}
			for ci, row := range krows {
				part[ci] += maxMulGather(prods, row, obs)
			}
		}
		for i := range out {
			out[i] += part[i]
		}
	}
	if n := len(pj.sample); n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	return out
}

// clipped returns the windows of sequence si (shard-local index i) still
// wide enough for a child of total length qLen: their parent products and
// the symbols observed at the child's extension offset, a slice of seq in
// ramp mode and gathered into *buf in sparse mode.
func (pr *Projection) clipped(sw *projShard, i int, seq []pattern.Symbol, qLen int, buf *[]pattern.Symbol) ([]float64, []pattern.Symbol) {
	wlo, whi := pr.clipShard(sw, i, seq, qLen)
	if whi <= wlo {
		return nil, nil
	}
	prods, off := sw.prods[wlo:whi], qLen-1
	if pr.pj.ramp {
		return prods, seq[off : off+len(prods)]
	}
	obs := (*buf)[:0]
	for _, st := range sw.starts[wlo:whi] {
		obs = append(obs, seq[int(st)+off])
	}
	*buf = obs
	return prods, obs
}

// ProfileScratch holds the reusable buffers of Profile walks so a worker can
// profile one (node, length) group per call without reallocating. The zero
// value is ready to use; not safe for concurrent use.
type ProfileScratch struct {
	cm   []uint64         // dense class table, zeroed as it is swept
	obs  []pattern.Symbol // sparse mode: the observed symbols of one sequence's windows
	offs []int32
	syms []pattern.Symbol
	vals []float64
	clip []float64
}

// Profile is the class decomposition of a projection clipped for children of
// total length qLen: per sequence, the distinct observed symbols at the
// extension position with the maximum surviving parent product each (CSR over
// sequences), plus the per-sequence overall maximum — the same floats ClipMax
// returns, since a max over windows equals the max over class maxima. One
// window walk builds it; afterwards a child's per-sequence best is
// max over classes of fl(classMax × row[class]) — bit-identical to the
// window-by-window walk by float monotonicity (see ValueKids) — so valuing a
// sibling costs O(distinct classes), not O(windows), per sequence.
//
// A Profile borrows its scratch's buffers: it is valid only until the next
// Profile call on the same scratch.
type Profile struct {
	pr   *Projection
	qLen int
	offs []int32          // len(sample)+1 CSR offsets into syms/vals
	syms []pattern.Symbol // observed symbol per class entry
	vals []float64        // max surviving parent product per class entry
	clip []float64        // per-sequence max over all entries (ClipMax's floats)
}

// Profile walks the projection once at child length qLen and returns the
// class decomposition backed by sc.
func (pr *Projection) Profile(qLen int, sc *ProfileScratch) Profile {
	pj := pr.pj
	n := len(pj.sample)
	if len(sc.cm) < pj.m {
		sc.cm = make([]uint64, pj.m)
	}
	if cap(sc.clip) < n {
		sc.clip = make([]float64, n)
		sc.offs = make([]int32, 0, n+1)
	}
	cm := sc.cm[:pj.m]
	sc.clip = sc.clip[:n]
	sc.offs = append(sc.offs[:0], 0)
	sc.syms = sc.syms[:0]
	sc.vals = sc.vals[:0]
	for s, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		for si := lo; si < hi; si++ {
			prods, obs := pr.clipped(sw, si-lo, pj.sample[si], qLen, &sc.obs)
			sc.clip[si] = 0
			if len(prods) > 0 {
				// A class holding only +0 products stays absent: it is inert
				// under every max.
				classMax(cm, prods, obs)
				sc.syms, sc.vals, sc.clip[si] = sweepClasses(cm, sc.syms, sc.vals)
			}
			sc.offs = append(sc.offs, int32(len(sc.syms)))
		}
	}
	return Profile{pr: pr, qLen: qLen, offs: sc.offs, syms: sc.syms, vals: sc.vals, clip: sc.clip}
}

// Clip returns the per-sequence clipped maxima — the slice Bound expects,
// float-identical to ClipMax(qLen).
func (pf *Profile) Clip() []float64 { return pf.clip }

// ValueKids scores every extension of the profiled pattern by the symbols ds
// at the profile's child length — the same floats Projection.ValueKids
// produces, from the class entries instead of the raw windows.
func (pf *Profile) ValueKids(ds []pattern.Symbol) []float64 {
	pj := pf.pr.pj
	out := make([]float64, len(ds))
	part := make([]float64, len(ds))
	krows := make([][]float64, len(ds))
	for i, d := range ds {
		krows[i] = pj.rc.row(d)
	}
	for _, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		clear(part)
		for si := lo; si < hi; si++ {
			elo, ehi := pf.offs[si], pf.offs[si+1]
			if ehi <= elo {
				continue
			}
			syms, vals := pf.syms[elo:ehi], pf.vals[elo:ehi]
			for ci, row := range krows {
				part[ci] += maxMulGather(vals, row, syms)
			}
		}
		for i := range out {
			out[i] += part[i]
		}
	}
	if n := len(pj.sample); n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	return out
}

// ExtendInto materializes the projection of the child extending the
// projected pattern to total length qLen with the concrete symbol d: each
// surviving parent window's product gains one row factor (O(1) per window),
// zero products are dropped in sparse mode, and the block is compacted when
// sparse enough. It writes into dst, a retired projection reused like
// BuildInto's (nil allocates). dst must not be pr: the child's windows are
// written while the parent's are read.
func (pr *Projection) ExtendInto(dst *Projection, qLen int, d pattern.Symbol) *Projection {
	pj := pr.pj
	row := pj.rc.row(d)
	child := pj.reset(dst, qLen)
	off := qLen - 1
	for s, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		cw := &child.shards[s]
		// Surviving windows are bounded both by the parent's block and by the
		// child length's window count; reserving the smaller keeps Bytes()
		// within WindowBytesBound(qLen), the budget admission bound.
		bound := min(len(sw.prods), pj.shardWindowBound(lo, hi, qLen))
		kept := bound
		if pj.ramp {
			dst := reuse(cw.prods, bound)
			for si := lo; si < hi; si++ {
				seq := pj.sample[si]
				wlo, whi := pr.clipShard(sw, si-lo, seq, qLen)
				if whi > wlo {
					prods := sw.prods[wlo:whi]
					obs := seq[off : off+len(prods)]
					for j, p := range prods {
						dst = append(dst, p*row[obs[j]])
					}
				}
				cw.offs[si-lo+1] = int32(len(dst))
			}
			cw.prods = dst
		} else {
			kst, kpr := reuse(cw.starts, bound), reuse(cw.prods, bound)
			for si := lo; si < hi; si++ {
				seq := pj.sample[si]
				wlo, whi := pr.clipShard(sw, si-lo, seq, qLen)
				for w := wlo; w < whi; w++ {
					st := sw.starts[w]
					if v := sw.prods[w] * row[seq[st+int32(off)]]; v != 0 {
						kst = append(kst, st)
						kpr = append(kpr, v)
					}
				}
				cw.offs[si-lo+1] = int32(len(kpr))
			}
			cw.starts, cw.prods, kept = compactWindows(kst, kpr, bound)
		}
		child.bytes += pj.charge(len(cw.offs), int64(kept))
	}
	return child
}
