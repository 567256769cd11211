package cluster

import (
	"sort"

	"vmt/internal/workload"
)

// registry interns workloads into dense indices shared by every server
// in a cluster. Placement scans compare per-workload job counts across
// hundreds of servers per decision; keying those counts by the
// Workload struct would hash it once per server per scan, which
// profiling shows dominating whole-cluster runs. With the registry a
// scan resolves the index once and reads plain slice elements.
// The one-entry memo short-circuits the map hash for the common case —
// a scheduler placing or evicting a run of jobs of the same workload
// resolves the same index many times in a row. Like the rest of the
// scheduling state it is single-threaded: only the scheduler band
// touches the registry (the parallel physics phase never does).
type registry struct {
	index map[workload.Workload]int
	list  []workload.Workload
	// coreW[i] is list[i]'s draw per occupied core on this cluster's
	// servers (Cluster.CorePowerW), computed once at intern so a job
	// move adds or subtracts a stored value.
	coreW []float64
	// byName holds registry indices ordered by workload name, giving
	// scans a deterministic name-sorted iteration without building and
	// sorting a fresh slice per call. Rebuilt on intern, which is rare
	// after warmup (the workload set is fixed per run).
	byName []int

	memoW   workload.Workload
	memoI   int
	hasMemo bool
}

func newRegistry() *registry {
	return &registry{index: make(map[workload.Workload]int)}
}

// add interns w, which lookup does not know, with its per-core draw
// coreW, and returns its index.
func (r *registry) add(w workload.Workload, coreW float64) int {
	i := len(r.list)
	r.index[w] = i
	r.list = append(r.list, w)
	r.coreW = append(r.coreW, coreW)
	r.byName = append(r.byName, i)
	sort.Slice(r.byName, func(a, b int) bool {
		return r.list[r.byName[a]].Name < r.list[r.byName[b]].Name
	})
	r.memoW, r.memoI, r.hasMemo = w, i, true
	return i
}

// lookup returns the index without assigning.
func (r *registry) lookup(w workload.Workload) (int, bool) {
	if r.hasMemo && r.memoW == w { //vmtlint:allow floateq interning memo; must match map-key equality bit-for-bit
		return r.memoI, true
	}
	i, ok := r.index[w]
	if ok {
		r.memoW, r.memoI, r.hasMemo = w, i, true
	}
	return i, ok
}
