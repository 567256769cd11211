package cluster

import (
	"fmt"
	"math"
	"math/bits"
)

// indexCrossover is the smallest cluster that gets a placement index.
// Every Place and Remove must update the trees of all workloads, which
// below this size costs more than the linear scans it saves; the value
// comes from the VMT-TA and VMT-WA rows of BenchmarkRunScale (see
// DESIGN.md, "Placement index").
const indexCrossover = 500

// maxIndexedCores is the largest per-server core count that gets a
// placement index: a place key packs jobs and busy cores into 16 bits
// each. Servers with more cores than that keep the linear scans.
const maxIndexedCores = 1<<16 - 1

// none is the key of a server that cannot be the answer: no free core
// in a place tree, no job of the workload in an evict tree.
const none = math.MaxUint32

// PlacementIndex answers the VMT schedulers' two unfiltered group
// scans in O(log N) instead of O(N), with exactly the scans' answers:
//
//   - LeastBusy: the server in [lo,hi) with a free core and the fewest
//     jobs of a workload, then the fewest busy cores;
//   - MostBusyWith: the server in [lo,hi) with the most jobs of a
//     workload;
//
// ties going to the first server at or after a rotation start from,
// wrapping to lo. It keeps two tournament trees of minima per interned
// workload, kept current by Server.Place/Remove and
// Cluster.MarkFailed/MarkRepaired, the only mutators of the keys.
type PlacementIndex struct {
	reg     *registry
	servers []*Server
	// size is the leaf count: the server count rounded up to a power of
	// two. Leaves past the last server hold none.
	size int
	// trees[2w] is workload w's place tree and trees[2w+1] its evict
	// tree. Node p (1 ≤ p < size) holds the least key below it, with
	// children 2p and 2p+1; node size+i is server i. The leaf level is
	// not stored — a leaf's key is read from its server — so a tree
	// costs one key per server.
	trees [][]uint32
}

// newPlacementIndex builds an index over the cluster's current state.
func newPlacementIndex(reg *registry, servers []*Server) *PlacementIndex {
	x := &PlacementIndex{reg: reg, servers: servers, size: 1 << bits.Len(uint(len(servers)-1))}
	for range reg.list {
		x.addWorkload()
	}
	return x
}

// addWorkload builds the trees of the most recently interned workload.
func (x *PlacementIndex) addWorkload() {
	for range 2 {
		tree := make([]uint32, x.size)
		x.build(len(x.trees), tree)
		x.trees = append(x.trees, tree)
	}
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

// Verify rebuilds every tree from the servers and reports the first
// node that differs from the incrementally maintained one.
func (x *PlacementIndex) Verify() error {
	if len(x.trees) != 2*len(x.reg.list) {
		return fmt.Errorf("cluster: placement index has %d trees for %d workloads", len(x.trees), len(x.reg.list))
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

// key is server i's key in tree t. In workload w's place tree it is
// jobs of w in the high 16 bits and busy cores in the low 16, which
// orders (jobs, busy) lexicographically as the scan does, or none
// without a free core. In its evict tree it is the complement of jobs
// of w, so the most jobs is the least key and no jobs is none; like the
// scan, it ignores whether the server has failed.
//
//vmt:hotpath
func (x *PlacementIndex) key(t, i int) uint32 {
	if i >= len(x.servers) {
		return none
	}
	s := x.servers[i]
	jobs := uint32(s.counts[t>>1])
	if t&1 == 1 {
		return ^jobs
	}
	if s.failed || s.busyCores >= s.cores {
		return none
	}
	return jobs<<16 | uint32(s.busyCores)
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

// LeastBusy returns the server that a linear scan of [lo,hi) rotating
// from from (lo ≤ from < hi) picks for a job of workload w: among
// servers with a free core, the fewest jobs of w, then the fewest busy
// cores, ties to the first server at or after from, wrapping to lo.
// Nil when no server in the range has a free core.
//
//vmt:hotpath
func (x *PlacementIndex) LeastBusy(w, lo, hi, from int) *Server {
	return x.first(2*w, lo, hi, from)
}

// MostBusyWith returns the server that a linear scan of [lo,hi)
// rotating from from picks to evict a job of workload w: the most jobs
// of w, ties to the first server at or after from, wrapping to lo. Nil
// when no server in the range runs w.
//
//vmt:hotpath
func (x *PlacementIndex) MostBusyWith(w, lo, hi, from int) *Server {
	return x.first(2*w+1, lo, hi, from)
}

// first returns the server with the least key of tree t in [lo,hi),
// ties to the first at or after from, wrapping to lo; nil if every key
// is none.
//
//vmt:hotpath
func (x *PlacementIndex) first(t, lo, hi, from int) *Server {
	best, p := x.minIn(t, from, hi)
	if v, q := x.minIn(t, lo, from); v < best {
		best, p = v, q
	}
	if best == none {
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
	return x.servers[p-x.size]
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
