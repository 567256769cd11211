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
	// byName holds registry indices ordered by workload name, giving
	// scans a deterministic name-sorted iteration without building and
	// sorting a fresh slice per call. Rebuilt on intern, which is rare
	// after warmup (the workload set is fixed per run).
	byName []int

	// servers' job counts share one slab: server id's counts slice is
	// the row [id*stride, (id+1)*stride) of it, stride = len(list), so
	// JobsAt stays one slice read. One slab instead of a slice per
	// server is what pays for the placement index's trees. Interning a
	// workload re-lays the slab at the new stride.
	servers []*Server
	// place is the placement index, nil unless Cluster.PlacementIndex
	// built one; intern gives it trees for each new workload.
	place *PlacementIndex

	memoW   workload.Workload
	memoI   int
	hasMemo bool
}

func newRegistry() *registry {
	return &registry{index: make(map[workload.Workload]int)}
}

// intern returns the workload's index, assigning one on first use.
func (r *registry) intern(w workload.Workload) int {
	if r.hasMemo && r.memoW == w { //vmtlint:allow floateq interning memo; must match map-key equality bit-for-bit
		return r.memoI
	}
	i, ok := r.index[w]
	if !ok {
		i = len(r.list)
		r.index[w] = i
		r.list = append(r.list, w)
		r.byName = append(r.byName, i)
		sort.Slice(r.byName, func(a, b int) bool {
			return r.list[r.byName[a]].Name < r.list[r.byName[b]].Name
		})
		r.relayout()
		if r.place != nil {
			r.place.addWorkload()
		}
	}
	r.memoW, r.memoI, r.hasMemo = w, i, true
	return i
}

// relayout widens the job-count slab to one column per interned
// workload, keeping every server's counts and re-pointing its row.
func (r *registry) relayout() {
	stride := len(r.list)
	slab := make([]int32, len(r.servers)*stride)
	for id, s := range r.servers {
		row := slab[id*stride : (id+1)*stride : (id+1)*stride]
		copy(row, s.counts)
		s.counts = row
	}
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
