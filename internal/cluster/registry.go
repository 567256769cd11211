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
	// servers, PerCorePowerW × PowerScale, computed once at intern so a
	// job move adds or subtracts a stored value. Every server shares
	// the cluster's one spec, so one scale serves them all.
	coreW      []float64
	powerScale float64
	// byName holds registry indices ordered by workload name, giving
	// scans a deterministic name-sorted iteration without building and
	// sorting a fresh slice per call. Rebuilt on intern, which is rare
	// after warmup (the workload set is fixed per run).
	byName []int

	// keys is the place-key slab: one packed key (index.go) per
	// server and workload, server id's row being [id*stride,
	// (id+1)*stride) with stride = len(list). A server's keys slice is
	// its row, so JobsAt stays one slice read, and the group scans read
	// the slab itself at a stride instead of loading each server.
	// Interning a workload re-lays the slab at the new stride.
	keys []uint32
	// packed is set by the cluster's first group query (Cluster.packKeys),
	// which packs every row's header. Until then job moves keep each
	// key's jobs field exact and leave the headers alone, so round robin
	// and coolest-first, which never query, never pay to pack them.
	packed bool
	// pow is the power column: server id's draw is pow[id], the value
	// Server.PowerW returns. Server.Place/Remove and
	// Cluster.MarkFailed/MarkRepaired rewrite it (Server.storePower), so
	// Cluster.Step hands it to the physics as is.
	pow     []float64
	servers []*Server
	// place is the placement index, nil until the cluster's first
	// unfiltered query builds one (Cluster.buildIndex); intern gives it
	// trees for each new workload.
	place *PlacementIndex
	// reportEpoch is the cluster's report epoch (Cluster.ReportEpoch).
	// It lives here, beside place, because Server.SetReportFilter moves
	// it and servers reach the cluster only through the registry.
	reportEpoch uint64

	memoW   workload.Workload
	memoI   int
	hasMemo bool
}

func newRegistry(powerScale float64) *registry {
	return &registry{index: make(map[workload.Workload]int), powerScale: powerScale}
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
		r.coreW = append(r.coreW, w.PerCorePowerW()*r.powerScale)
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

// relayout widens the key slab to one column per interned workload,
// keeping every server's keys, giving it no job of the new workload
// (with its header once the slab is packed), and re-pointing its row.
func (r *registry) relayout() {
	stride := len(r.list)
	slab := make([]uint32, len(r.servers)*stride)
	for id, s := range r.servers {
		row := slab[id*stride : (id+1)*stride : (id+1)*stride]
		copy(row, s.keys)
		if r.packed {
			row[stride-1] = s.header()
		}
		s.keys = row
	}
	r.keys = slab
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
