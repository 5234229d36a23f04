package match

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/pattern"
)

// A run is what the prefix-tree kernel scores at once: at most RunSeqs
// sequences and RunSymbols symbols lying one after another in one arena. A
// longer sequence is cut into pieces, each a run of its own (see run.long).
// Factor-table rows take at most tableBytes of a run's scratch.
const (
	RunSeqs    = 64
	RunSymbols = 4 << 10
	tableBytes = 1 << 20
)

// prefixTree is a batch's non-eternal (offset, symbol) positions merged into
// a prefix tree, in pre-order: a pattern is the path from a root to the node
// its last position reaches.
type prefixTree struct {
	nodes  []treeNode
	ends   []int32     // batch indices, grouped by the node the pattern ends at
	shared [][]float64 // factor-table rows: rows several nodes use, most used first
	slots  int         // product vectors scoring needs
	maxOff int         // the largest node offset
}

// treeNode is one prefix-tree node. Its window products are its row's
// factors for a root, and its parent's products times its row's factor at
// its offset for a child, so every product is formed left to right over the
// same factors as windowMax's. A node that has children keeps its products
// in vector slot; its last child overwrites them in place, the others take
// slot+1, so a tree needs about log2(nodes) vectors, not one per depth.
type treeNode struct {
	off        int
	row        []float64
	tab        int   // factor-table row, or -1 when the row is gathered
	slot       int   // the vector this node's products go to
	src        int   // the vector holding the parent's products, -1 for a root
	store      bool  // the node has children, which read its products
	endA, endB int32 // ends[endA:endB] are the patterns ending here
}

// buildTree merges ps, all valid, into their prefix tree. rc must hold every
// pattern symbol's row. Nothing recurses, so a pattern of any length builds.
func buildTree(rc *rowCache, ps []pattern.Pattern) *prefixTree {
	type key struct {
		parent, off int
		sym         pattern.Symbol
	}
	type trieNode struct {
		off  int
		sym  pattern.Symbol
		kids []int
		ends []int32
		need int // vectors the node's subtree needs, counting its own
	}
	var trie []trieNode
	var roots []int
	ids := make(map[key]int)
	for i, p := range ps {
		cur := -1
		for off, d := range p {
			if d.IsEternal() {
				continue
			}
			k := key{cur, off, d}
			id, ok := ids[k]
			if !ok {
				id = len(trie)
				ids[k] = id
				trie = append(trie, trieNode{off: off, sym: d})
				if cur < 0 {
					roots = append(roots, id)
				} else {
					trie[cur].kids = append(trie[cur].kids, id)
				}
			}
			cur = id
		}
		trie[cur].ends = append(trie[cur].ends, int32(i))
	}
	// A child is created after its parent, so a backward sweep sizes every
	// subtree before its parent. The child needing the most vectors goes
	// last: it inherits the parent's vector, the others stack one above it.
	for id := len(trie) - 1; id >= 0; id-- {
		n := &trie[id]
		if len(n.kids) == 0 {
			continue
		}
		slices.SortStableFunc(n.kids, func(a, b int) int { return cmp.Compare(trie[a].need, trie[b].need) })
		n.need = max(1, trie[n.kids[len(n.kids)-1]].need)
		for _, k := range n.kids[:len(n.kids)-1] {
			n.need = max(n.need, 1+trie[k].need)
		}
	}

	uses := make(map[pattern.Symbol]int)
	for _, n := range trie {
		uses[n.sym]++
	}
	var shared []pattern.Symbol
	for d, u := range uses {
		if u > 1 {
			shared = append(shared, d)
		}
	}
	slices.SortFunc(shared, func(a, b pattern.Symbol) int {
		return cmp.Or(cmp.Compare(uses[b], uses[a]), cmp.Compare(a, b))
	})
	tab := make(map[pattern.Symbol]int, len(shared))
	t := &prefixTree{nodes: make([]treeNode, 0, len(trie))}
	for j, d := range shared {
		tab[d] = j
		t.shared = append(t.shared, rc.row(d))
	}

	// Emit in pre-order from an explicit stack: children are pushed last
	// first, so the first is emitted first and the last, which overwrites
	// its parent's vector, after every sibling has read it.
	type frame struct{ id, slot, src int }
	var stack []frame
	for i := len(roots) - 1; i >= 0; i-- {
		stack = append(stack, frame{roots[i], 0, -1})
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &trie[f.id]
		j, ok := tab[n.sym]
		if !ok {
			j = -1
		}
		t.nodes = append(t.nodes, treeNode{
			off: n.off, row: rc.row(n.sym), tab: j, slot: f.slot, src: f.src,
			store: len(n.kids) > 0, endA: int32(len(t.ends)),
		})
		t.ends = append(t.ends, n.ends...)
		t.nodes[len(t.nodes)-1].endB = int32(len(t.ends))
		t.maxOff = max(t.maxOff, n.off)
		if len(n.kids) > 0 {
			t.slots = max(t.slots, f.slot+1)
		}
		for i := len(n.kids) - 1; i >= 0; i-- {
			slot := f.slot + 1
			if i == len(n.kids)-1 {
				slot = f.slot
			}
			stack = append(stack, frame{n.kids[i], slot, f.slot})
		}
	}
	return t
}

// piece is one run entry: a sequence, or part of a long one, at
// arena[start:end] of the arena being scored. Its windows start before lim
// (a node at offset off also stops at end-off). dst receives each pattern's
// match; it is nil while the sequence goes on in the next piece, whose cont
// is then set.
type piece struct {
	start, end, lim int
	dst             []float64
	cont            bool
}

// run is the tree kernel's state: sequences queued by copy (arena, ends and
// dsts), the pieces of the run being scored, the factor table, the product
// vectors, the factors of a node whose row is not in the table, and the
// maxima a cut sequence carries between pieces. Runs are pooled, so their
// buffers serve every later run and pass.
type run struct {
	arena  []pattern.Symbol
	ends   []int
	dsts   [][]float64
	pieces []piece
	table  []float64
	bufs   [][]float64
	vals   [][]float64 // vals[slot]: the products last put in slot (a table row for a root)
	fac    []float64
	carry  []float64
}

var runs = sync.Pool{New: func() any { return newRun() }}

func newRun() *run {
	return &run{
		arena:  make([]pattern.Symbol, 0, RunSymbols),
		ends:   make([]int, 0, RunSeqs),
		dsts:   make([][]float64, 0, RunSeqs),
		pieces: make([]piece, 0, RunSeqs),
	}
}

// add queues a copy of seq, whose matches go to dst, scoring the queue first
// when seq does not fit. A sequence longer than a run is scored at once, in
// place.
func (r *run) add(t *prefixTree, dst []float64, seq []pattern.Symbol) {
	if len(seq) > RunSymbols {
		r.flush(t)
		r.long(t, dst, seq)
		return
	}
	if len(r.ends) == RunSeqs || len(r.arena)+len(seq) > RunSymbols {
		r.flush(t)
	}
	r.arena = append(r.arena, seq...)
	r.ends = append(r.ends, len(r.arena))
	r.dsts = append(r.dsts, dst)
}

// flush scores the queued sequences and empties the queue.
func (r *run) flush(t *prefixTree) {
	r.scoreAll(t, r.arena, r.ends, r.dsts)
	r.arena, r.ends = r.arena[:0], r.ends[:0]
	clear(r.dsts)
	r.dsts = r.dsts[:0]
}

// scoreAll scores the sequences arena[ends[i-1]:ends[i]] (the first from 0),
// adding sequence i's matches to dsts[i], in place: the arena is cut into
// runs of consecutive sequences, and a sequence longer than a run is cut
// into pieces.
func (r *run) scoreAll(t *prefixTree, arena []pattern.Symbol, ends []int, dsts [][]float64) {
	base, start := 0, 0 // the run being filled is arena[base:start]
	for i, end := range ends {
		if end-start > RunSymbols {
			r.score(t, arena[base:start])
			r.long(t, dsts[i], arena[start:end])
			base, start = end, end
			continue
		}
		if len(r.pieces) == RunSeqs || end-base > RunSymbols {
			r.score(t, arena[base:start])
			base = start
		}
		r.pieces = append(r.pieces, piece{start: start - base, end: end - base, lim: end - base, dst: dsts[i]})
		start = end
	}
	r.score(t, arena[base:start])
}

// long scores seq, longer than a run, piece by piece. A piece holds the
// windows of RunSymbols symbols but the batch's reach, or of that reach if
// it is longer, plus the reach beyond them, so it spans at most
// max(RunSymbols, 2*maxOff) symbols.
func (r *run) long(t *prefixTree, dst []float64, seq []pattern.Symbol) {
	step := max(RunSymbols-t.maxOff, t.maxOff, 1)
	for x := 0; x < len(seq); x += step {
		var d []float64
		if x+step >= len(seq) {
			d = dst
		}
		v := seq[x:min(x+step+t.maxOff, len(seq))]
		r.pieces = append(r.pieces, piece{start: 0, end: len(v), lim: min(step, len(v)), dst: d, cont: x > 0})
		r.score(t, v)
	}
}

// score scores the queued pieces over arena node by node and empties the
// queue. A node's products are computed over the whole arena, windows that
// straddle two sequences included (nothing reads those); each pattern then
// adds its per-sequence maximum over its own windows to its sum, in
// sequence order.
func (r *run) score(t *prefixTree, arena []pattern.Symbol) {
	if len(r.pieces) == 0 {
		return
	}
	n := len(arena)
	nTab := min(len(t.shared), tableBytes/(8*max(n, 1)))
	r.table = grow(r.table, nTab*n, min(len(t.shared)*RunSymbols, tableBytes/8))
	for j, row := range t.shared[:nTab] {
		gather(r.table[j*n:(j+1)*n], row, arena)
	}
	if len(r.bufs) < t.slots {
		r.bufs = append(r.bufs, make([][]float64, t.slots-len(r.bufs))...)
		r.vals = make([][]float64, len(r.bufs))
	}
	for i := range t.slots {
		r.bufs[i] = grow(r.bufs[i], n, RunSymbols)
	}
	r.fac = grow(r.fac, n, RunSymbols)
	r.carry = grow(r.carry, len(t.nodes), 0)
	longest := 0
	for _, pc := range r.pieces {
		longest = max(longest, pc.end-pc.start)
	}

	for ni := range t.nodes {
		nd := &t.nodes[ni]
		var src, fac, dst []float64 // per window: the parent's product, the node's factor and product
		if nd.src >= 0 {
			src = r.vals[nd.src]
		}
		// A node at or past the longest piece has no window in any piece,
		// and neither has any node below it.
		if w := n - nd.off; nd.off < longest {
			if nd.tab >= 0 && nd.tab < nTab {
				fac = r.table[nd.tab*n+nd.off : (nd.tab+1)*n]
			} else {
				fac = r.fac[:w]
				if nd.store && src == nil {
					fac = r.bufs[nd.slot][:w] // a root's products are its factors
				}
				gather(fac, nd.row, arena[nd.off:])
			}
			if nd.store {
				dst = fac
				if src != nil {
					dst = r.bufs[nd.slot][:w]
					mul(dst, src, fac)
				}
				r.vals[nd.slot] = dst
			}
		}
		if nd.endA == nd.endB {
			continue
		}
		ends := t.ends[nd.endA:nd.endB]
		for k := range r.pieces {
			pc := &r.pieces[k]
			lo, hi := pc.start, min(pc.lim, pc.end-nd.off)
			best := 0.0
			if lo < hi {
				switch {
				case dst != nil:
					best = maxOf(dst[lo:hi])
				case src == nil:
					best = maxOf(fac[lo:hi])
				default:
					best = maxMul(src[lo:hi], fac[lo:hi])
				}
			}
			if pc.cont {
				best = max(best, r.carry[ni])
			}
			if pc.dst == nil {
				r.carry[ni] = best
				continue
			}
			for _, p := range ends {
				pc.dst[p] += best
			}
		}
	}
	clear(r.pieces)
	r.pieces = r.pieces[:0]
}

// grow returns buf with length at least n. It reallocates only to enlarge
// it, then to at least least floats, what any run short of a cut piece
// needs, so runs whose lengths creep up do not each leave a buffer behind.
func grow(buf []float64, n, least int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, max(n, least))
	}
	return buf[:max(len(buf), n)]
}

// The window loops. dst, src and fac index windows; each product is one
// multiplication of the parent's product by the node's factor. mul takes
// four windows per step: with one per step, inlined into score, its loop
// counter was spilled to the stack on every window, and
// BenchmarkSoAObserve's uniform row read about 25% slower.

func gather(dst, row []float64, seq []pattern.Symbol) {
	seq = seq[:len(dst)]
	for i, s := range seq {
		dst[i] = row[s]
	}
}

func mul(dst, src, fac []float64) {
	src, fac = src[:len(dst)], fac[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, s, f := dst[i:i+4:i+4], src[i:i+4:i+4], fac[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = s[0]*f[0], s[1]*f[1], s[2]*f[2], s[3]*f[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i] * fac[i]
	}
}

func maxOf(v []float64) float64 {
	best := 0.0
	for _, x := range v {
		if x > best {
			best = x
		}
	}
	return best
}

func maxMul(src, fac []float64) float64 {
	fac = fac[:len(src)]
	best := 0.0
	for i, p := range src {
		if x := p * fac[i]; x > best {
			best = x
		}
	}
	return best
}
