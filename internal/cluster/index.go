package cluster

import (
	"fmt"
	"math"
	"math/bits"
)

// Place keys. Every (server, workload) pair has one 32-bit place key,
// the OR of two words that Server.Place/Remove and
// Cluster.MarkFailed/MarkRepaired keep current: the pair's word of the
// job slab, jobs<<16, and the server's header word,
// full<<31 | failed<<15 | busy. So the key is
//
//	full<<31 | jobs<<16 | failed<<15 | busy
//
// jobs is the server's job count of the workload, busy its busy cores,
// failed is set while the server is failed, and full while it is
// failed or has no free core. ServerSpec.Validate caps a server at
// 32,767 cores, so jobs and busy fit their 15 bits exactly. Comparing
// keys compares (full, jobs, busy) lexicographically — failed matters
// only in keys already at or above fullBit — which is the placement
// order: every server with a free core before every full one, then the
// fewest jobs of the workload, then the fewest busy cores. A key at or
// above fullBit is never an answer. The key is built where it is read
// (leastIn, PlacementIndex.key), so a move writes one slab word and one
// header word.
const (
	fullBit   = 1 << 31
	failedBit = 1 << 15
	busyMask  = failedBit - 1
	jobsShift = 16
	jobsOne   = 1 << jobsShift
)

// evictKey orders the eviction choice by the job-slab word j: the most
// jobs of the workload is the least key, and no job at all is fullBit,
// so a server without the workload is never an answer. It reads no
// header: a job may be evicted from a full or failed server.
//
//vmt:hotpath
func evictKey(j uint32) uint32 { return fullBit - j }

// indexCrossover is the smallest cluster that gets a placement index.
// Every Place and Remove must then update the trees of all workloads,
// which below this size saves nothing measurable over the slab scans;
// the value comes from the VMT-TA and VMT-WA rows of BenchmarkRunScale
// with the index forced on and off (see DESIGN.md, "Placement index").
const indexCrossover = 500

// none is a tree leaf's key when the server cannot be the answer, and
// the key of a padding leaf past the last server.
const none = math.MaxUint32

// LeastBusy returns the target the VMT schedulers place a job of the
// workload with registry index w on, among servers [lo,hi) rotating
// from from (lo ≤ from < hi; an empty range gives nil): among servers
// with a free core, the fewest jobs of w, then the fewest busy cores,
// ties to the first server at or after from, wrapping to lo. A non-nil
// mask admits only the servers whose byte has a bit of want set (VMT-WA's
// wax-state bits). Nil when no server qualifies.
//
// Unfiltered queries go to the placement index, which the first one
// builds on a cluster of at least indexCrossover servers (buildIndex);
// the rest are a rotating first-minimum scan of the job slab and the
// header column.
//
//vmt:hotpath
func (c *Cluster) LeastBusy(w, lo, hi, from int, mask []uint8, want uint8) *Server {
	if mask == nil && (c.place != nil || c.buildIndex()) {
		return c.place.first(2*w, lo, hi, from)
	}
	slab, stride := c.slab, len(c.reg.list)
	best, at := leastIn(slab, c.head, stride, w, from, hi, mask, want, fullBit, -1)
	_, at = leastIn(slab, c.head, stride, w, lo, from, mask, want, best, at)
	if at < 0 {
		return nil
	}
	return c.servers[at]
}

// MostBusyWith returns the server the VMT schedulers evict a job of
// the workload with registry index w from, among servers [lo,hi)
// rotating from from: the most jobs of w, ties to the first server at
// or after from, wrapping to lo; mask and want filter as for
// LeastBusy. Nil when no admitted server runs w. It ignores whether a
// server has failed: evacuations and departures may remove from one.
//
//vmt:hotpath
func (c *Cluster) MostBusyWith(w, lo, hi, from int, mask []uint8, want uint8) *Server {
	if mask == nil && (c.place != nil || c.buildIndex()) {
		return c.place.first(2*w+1, lo, hi, from)
	}
	slab, stride := c.slab, len(c.reg.list)
	best, at := mostIn(slab, stride, w, from, hi, mask, want, fullBit, -1)
	_, at = mostIn(slab, stride, w, lo, from, mask, want, best, at)
	if at < 0 {
		return nil
	}
	return c.servers[at]
}

// buildIndex gives the cluster its placement index, built over the
// current state, if it has at least indexCrossover servers, and
// reports whether it did. LeastBusy and MostBusyWith call it on an
// unfiltered query while the cluster has no index, so a cluster gets
// its trees, and every Place and Remove starts paying to keep them
// current, only once a query can use them: round robin and
// coolest-first never query, and a wax-masked query is always a slab
// scan.
//
//vmt:hotpath
func (c *Cluster) buildIndex() bool {
	if len(c.servers) < indexCrossover {
		return false
	}
	c.place = newPlacementIndex(c) //vmtlint:allow hotpath built once per cluster, on its first unfiltered query
	return true
}

// leastIn scans the place keys of workload w, column w of the job
// slab ORed with the header column, over servers [a,b) and returns the
// least key below best with its server, the first one on ties, or best
// and at unchanged. A non-nil mask skips the servers whose byte has no
// bit of want.
//
//vmt:hotpath
func leastIn(slab, head []uint32, stride, w, a, b int, mask []uint8, want uint8, best uint32, at int) (uint32, int) {
	p := a*stride + w
	if mask == nil {
		for i := a; i < b; i, p = i+1, p+stride {
			if k := slab[p] | head[i]; k < best {
				best, at = k, i
			}
		}
		return best, at
	}
	for i := a; i < b; i, p = i+1, p+stride {
		if k := slab[p] | head[i]; k < best && mask[i]&want != 0 {
			best, at = k, i
		}
	}
	return best, at
}

// mostIn is leastIn over the eviction keys, which read the job slab
// alone.
//
//vmt:hotpath
func mostIn(slab []uint32, stride, w, a, b int, mask []uint8, want uint8, best uint32, at int) (uint32, int) {
	p := a*stride + w
	if mask == nil {
		for i := a; i < b; i, p = i+1, p+stride {
			if k := evictKey(slab[p]); k < best {
				best, at = k, i
			}
		}
		return best, at
	}
	for i := a; i < b; i, p = i+1, p+stride {
		if k := evictKey(slab[p]); k < best && mask[i]&want != 0 {
			best, at = k, i
		}
	}
	return best, at
}

// PlacementIndex answers the unfiltered LeastBusy and MostBusyWith
// queries in O(log N) instead of the slab scan's O(N), with exactly
// the scan's answers. It keeps two tournament trees of minima per
// interned workload, kept current by Server.Place/Remove and
// Cluster.MarkFailed/MarkRepaired. A follow-up query, one over a range
// a recent query of the same tree asked about, is answered from a memo
// of that answer while no move since can have lowered a key of the
// tree (first). Queries write the memo, so like the registry the index
// is used by the scheduler band alone.
type PlacementIndex struct {
	// c holds the job slab and header column the leaves read.
	c *Cluster
	// size is the leaf count: the server count rounded up to a power of
	// two. Leaves past the last server hold none.
	size int
	// trees[2w] is workload w's place tree and trees[2w+1] its evict
	// tree. Node p (1 ≤ p < size) holds the least key below it, with
	// children 2p and 2p+1; node size+i is server i. The leaf level is
	// not stored — a leaf's key is read from the job slab and the header
	// column — so a tree costs one key per server.
	trees [][]uint32
	// memo[2t] and memo[2t+1] are tree t's two most recently recorded
	// answers, the later first.
	memo []answer
	// placeGen counts the moves that can lower a place key
	// (Server.RemoveAt, Cluster.MarkRepaired), evictGen those that can
	// lower an evict key (Server.PlaceAt). An answer of a place tree is
	// remembered only while placeGen reads what it read when the answer
	// was recorded, and one of an evict tree while evictGen does.
	// addWorkload moves both, so a zero record is never current.
	placeGen, evictGen uint64
}

// answer is one remembered answer of first: when its tree's counter
// read gen, the least key of servers [lo,hi) was key, and at was the
// first server at or after from, cyclically, that held it; at is -1
// when key was no answer.
type answer struct {
	gen              uint64
	lo, hi, from, at int
	key              uint32
}

// probeBound is how many servers a follow-up query reads for the
// remembered key before first falls back to the walks.
const probeBound = 16

// newPlacementIndex builds an index over the cluster's current state.
func newPlacementIndex(c *Cluster) *PlacementIndex {
	x := &PlacementIndex{
		c:    c,
		size: 1 << bits.Len(uint(len(c.servers)-1)),
	}
	for range c.reg.list {
		x.addWorkload()
	}
	return x
}

// addWorkload builds the trees of the most recently interned workload
// and forgets every remembered answer.
func (x *PlacementIndex) addWorkload() {
	for range 2 {
		tree := make([]uint32, x.size)
		x.build(len(x.trees), tree)
		x.trees = append(x.trees, tree)
	}
	x.memo = append(x.memo, make([]answer, 4)...)
	x.placeGen++
	x.evictGen++
}

// build fills tree with the nodes of tree t, bottom up.
func (x *PlacementIndex) build(t int, tree []uint32) {
	for p := x.size - 1; p > 0; p-- {
		if l := 2 * p; l >= x.size {
			tree[p] = min(x.key(t, l-x.size), x.key(t, l+1-x.size))
		} else {
			tree[p] = min(tree[l], tree[l+1])
		}
	}
}

// Verify rebuilds every tree from the job slab and the header column
// and reports the first node that differs from the incrementally
// maintained one.
func (x *PlacementIndex) Verify() error {
	if n := len(x.c.reg.list); len(x.trees) != 2*n {
		return fmt.Errorf("cluster: placement index has %d trees for %d workloads", len(x.trees), n)
	}
	want := make([]uint32, x.size)
	for t, tree := range x.trees {
		x.build(t, want)
		for p := 1; p < x.size; p++ {
			if tree[p] != want[p] {
				return fmt.Errorf("cluster: placement index: workload %d tree %d node %d is %#x, rebuild gives %#x",
					t/2, t%2, p, tree[p], want[p])
			}
		}
	}
	return nil
}

// key is server i's key in tree t: its place key of workload w = t/2
// in w's place tree, its eviction key in w's evict tree, and none past
// the last server or when the key is no answer. Reading every
// non-answer as the one value none keeps a subtree of full servers
// uniform, so the walks' comparisons over it stay predictable.
//
//vmt:hotpath
func (x *PlacementIndex) key(t, i int) uint32 {
	c := x.c
	if i >= len(c.head) {
		return none
	}
	k := c.slab[i*len(c.reg.list)+t>>1]
	if t&1 == 1 {
		k = evictKey(k)
	} else {
		k |= c.head[i]
	}
	if k >= fullBit {
		return none
	}
	return k
}

// node is node p of tree t, whose stored nodes are tree.
//
//vmt:hotpath
func (x *PlacementIndex) node(tree []uint32, t, p int) uint32 {
	if p < len(tree) {
		return tree[p]
	}
	return x.key(t, p-len(tree))
}

// capacityChanged updates every place tree after server i's busy cores
// or failed state changed.
//
//vmt:hotpath
func (x *PlacementIndex) capacityChanged(i int) {
	for t := 0; t < len(x.trees); t += 2 {
		x.fix(t, i)
	}
}

// jobsChanged updates the trees after a job of workload w was placed
// on or removed from server i.
//
//vmt:hotpath
func (x *PlacementIndex) jobsChanged(w, i int) {
	x.capacityChanged(i)
	x.fix(2*w+1, i)
}

// fix recomputes the ancestors of server i's leaf in tree t, stopping
// at the first one whose minimum is unchanged: everything above it is
// then unchanged too.
//
//vmt:hotpath
func (x *PlacementIndex) fix(t, i int) {
	tree := x.trees[t]
	for p := (x.size + i) >> 1; p > 0; p >>= 1 {
		v := min(x.node(tree, t, 2*p), x.node(tree, t, 2*p+1))
		if tree[p] == v {
			return
		}
		tree[p] = v
	}
}

// first returns the server with the least key of tree t in [lo,hi),
// ties to the first at or after from, wrapping to lo; nil if that key
// is not an answer (fullBit or above).
//
// A follow-up query is answered from the memo: one over the range of
// one of tree t's two remembered answers, while no move that can lower
// a key of t has happened since. Every key of the range is then at
// least what it was, so the remembered key is still the least if any
// server holds it, and the answer is the first server from from that
// does (probe). A remembered nil stays nil. Otherwise, or when the
// probe gives up, two bottom-up walks and a descent answer it.
//
//vmt:hotpath
func (x *PlacementIndex) first(t, lo, hi, from int) *Server {
	gen := x.evictGen
	if t&1 == 0 {
		gen = x.placeGen
	}
	m := x.memo[2*t : 2*t+2 : 2*t+2]
	for j := range m {
		r := &m[j]
		if r.lo != lo || r.hi != hi || r.gen != gen {
			continue
		}
		if r.at < 0 {
			return nil
		}
		at := x.probe(t, r, from)
		if at < 0 {
			break
		}
		r.from, r.at = from, at
		return x.c.servers[at]
	}
	best, p := x.minIn(t, from, hi)
	if v, q := x.minIn(t, lo, from); v < best {
		best, p = v, q
	}
	// Record the answer in place of the record of the same range, or
	// else of the earlier one.
	if m[0].lo != lo || m[0].hi != hi {
		m[1] = m[0]
	}
	m[0] = answer{gen: gen, lo: lo, hi: hi, from: from, at: -1, key: best}
	if best >= fullBit {
		return nil
	}
	// Descend to the first leaf holding the minimum.
	tree := x.trees[t]
	for p < x.size {
		p <<= 1
		if x.node(tree, t, p) != best {
			p++
		}
	}
	m[0].at = p - x.size
	return x.c.servers[p-x.size]
}

// probe returns the first server at or after from, cyclically in
// [r.lo,r.hi), whose key in tree t is still r.key, or -1 if it reads
// probeBound servers without finding one. It relies on no move that
// can lower a key of t having happened since r was recorded. No server
// from r.from up to r.at held r.key then, and none can hold it now, so
// when from lies in [r.from,r.at] cyclically the probe starts at r.at;
// r.at itself is read, as its key may not have moved.
//
//vmt:hotpath
func (x *PlacementIndex) probe(t int, r *answer, from int) int {
	n := r.hi - r.lo
	i := from
	if ahead(r.from, from, n) <= ahead(r.from, r.at, n) {
		i = r.at
	}
	for left := min(n-ahead(from, i, n), probeBound); left > 0; left-- {
		if x.key(t, i) == r.key {
			return i
		}
		if i++; i == r.hi {
			i = r.lo
		}
	}
	return -1
}

// ahead is how many places b follows a in the cyclic order of a range
// of n servers holding both.
//
//vmt:hotpath
func ahead(a, b, n int) int {
	if b < a {
		return b - a + n
	}
	return b - a
}

// minIn returns the least key of tree t among servers [a,b) and the
// first node, in server order, of the O(log N) nodes covering the range
// that holds it. The covering nodes are met left to right on the a side
// and right to left on the b side, every a-side node before every
// b-side one, so ties go to the earlier node on both sides.
//
//vmt:hotpath
func (x *PlacementIndex) minIn(t, a, b int) (uint32, int) {
	tree := x.trees[t]
	left, lp := uint32(none), 0
	right, rp := uint32(none), 0
	for l, r := a+x.size, b+x.size; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			if v := x.node(tree, t, l); v < left {
				left, lp = v, l
			}
			l++
		}
		if r&1 == 1 {
			r--
			if v := x.node(tree, t, r); v <= right {
				right, rp = v, r
			}
		}
	}
	if right < left {
		return right, rp
	}
	return left, lp
}
