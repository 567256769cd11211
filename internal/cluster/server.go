// Package cluster implements the simulated server cluster: servers
// that combine the thermal model with job occupancy and the linear
// per-core power model, plus the cluster-wide stepping and sampling
// machinery that the schedulers and experiments drive.
package cluster

import (
	"fmt"
	"sort"

	"vmt/internal/pcm"
	"vmt/internal/thermal"
	"vmt/internal/workload"
)

// Server is one simulated machine: a handle on slot id of its
// cluster's per-server columns. Jobs are single-core tasks tagged with
// their workload; per Section IV-B they are assigned separate physical
// cores and never share SMT contexts.
//
// The handle is immutable and holds no state of its own: busy cores,
// failure, jobs, draw, reports and the thermal state all live in dense
// columns indexed by server ID (Cluster, thermal.Fleet), which a Step
// or a group query streams without loading a Server, and the accessors
// here read those columns.
type Server struct {
	c  *Cluster
	id int
}

// ReportFilter rewrites a server's reported telemetry before the
// scheduler sees it. Implementations must be pure functions of state
// updated only on the sequential fault band: report accessors may be
// called several times per tick by scheduler scans, so a filter that
// consumed randomness per call would break bit-identity across worker
// counts. Whoever updates that state calls Cluster.ReportsChanged
// after the update, before the scheduler next runs: schedulers may
// cache what the reports said until the report epoch moves, and
// SetReportFilter moves it only when a filter is installed or removed.
type ReportFilter interface {
	// FilterUtilization maps the true utilization to the reported one.
	FilterUtilization(trueUtil float64) float64
	// FilterMeltFrac maps the estimator's melt fraction to the
	// reported one.
	FilterMeltFrac(estFrac float64) float64
}

// ID returns the server's index within its cluster.
func (s *Server) ID() int { return s.id }

// Cores returns the server's total core count.
func (s *Server) Cores() int { return s.c.cores }

// BusyCores returns the number of occupied cores.
//
//vmt:hotpath
func (s *Server) BusyCores() int { return int(s.c.head[s.id] & busyMask) }

// FreeCores returns the number of unoccupied cores. A failed server
// has none, which keeps every scheduler scan loop from placing onto
// it without any policy-side special-casing.
//
//vmt:hotpath
func (s *Server) FreeCores() int {
	h := s.c.head[s.id]
	if h&failedBit != 0 {
		return 0
	}
	return s.c.cores - int(h&busyMask)
}

// Failed reports whether the server is currently crashed.
//
//vmt:hotpath
func (s *Server) Failed() bool { return s.c.head[s.id]&failedBit != 0 }

// Estimator exposes the server's melt-fraction estimator so fault
// injection can interpose a sensor and reset it on repair. It is nil
// until Cluster.EnableEstimates.
func (s *Server) Estimator() *pcm.Estimator {
	if s.c.ests == nil {
		return nil
	}
	return &s.c.ests[s.id]
}

// Jobs returns the job count for workload w.
func (s *Server) Jobs(w workload.Workload) int {
	i, ok := s.c.reg.lookup(w)
	if !ok {
		return 0
	}
	return s.JobsAt(i)
}

// JobsAt returns the job count for the workload with the given
// registry index (see Cluster.WorkloadIndex) — the allocation- and
// hash-free fast path the schedulers' scan loops use.
//
//vmt:hotpath
func (s *Server) JobsAt(i int) int {
	stride := len(s.c.reg.list)
	if i < 0 || i >= stride {
		return 0
	}
	return int(s.c.slab[s.id*stride+i] >> jobsShift)
}

// Workloads returns the workloads currently running on the server,
// sorted by name for deterministic iteration.
func (s *Server) Workloads() []workload.Workload {
	var out []workload.Workload
	for i, w := range s.c.reg.list {
		if s.JobsAt(i) != 0 {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LargestJob returns the workload of the given class with the most
// jobs on s, scanning in name order so ties break deterministically
// (first name wins). It is the allocation-free form of filtering
// Workloads() by class and taking the max — the shape of VMT-WA's
// per-tick rebalancing query.
func (s *Server) LargestJob(class workload.Class) (workload.Workload, bool) {
	var best workload.Workload
	bestN := 0
	found := false
	for _, i := range s.c.reg.byName {
		n := s.JobsAt(i)
		if n == 0 {
			continue
		}
		w := s.c.reg.list[i]
		if w.Class != class {
			continue
		}
		if !found || n > bestN {
			best, bestN, found = w, n, true
		}
	}
	return best, found
}

// Utilization returns busy cores over total cores.
func (s *Server) Utilization() float64 {
	return float64(s.BusyCores()) / float64(s.c.cores)
}

// Place assigns one job of workload w to a free core.
func (s *Server) Place(w workload.Workload) error { return s.PlaceAt(s.c.intern(w)) }

// PlaceAt assigns one job of the workload with registry index i (see
// Cluster.WorkloadIndex) to a free core — the hash-free form of Place
// for callers that hold the index.
func (s *Server) PlaceAt(i int) error {
	if s.FreeCores() == 0 {
		return fmt.Errorf("cluster: server %d full", s.id)
	}
	c, id := s.c, s.id
	c.slab[id*len(c.reg.list)+i] += jobsOne
	c.head[id] = c.header(s.BusyCores()+1, false)
	c.dyn[id] += c.reg.coreW[i]
	c.storePower(id)
	if x := c.place; x != nil {
		x.jobsChanged(i, id)
		x.evictGen++
	}
	return nil
}

// Remove evicts one job of workload w.
func (s *Server) Remove(w workload.Workload) error {
	i, ok := s.c.reg.lookup(w)
	if !ok {
		return fmt.Errorf("cluster: server %d has no %s job", s.id, w.Name)
	}
	return s.RemoveAt(i)
}

// RemoveAt evicts one job of the workload with registry index i (see
// Cluster.WorkloadIndex) — the hash-free form of Remove.
func (s *Server) RemoveAt(i int) error {
	if s.JobsAt(i) == 0 {
		return fmt.Errorf("cluster: server %d has no %s job", s.id, s.c.reg.list[i].Name)
	}
	c, id := s.c, s.id
	busy := s.BusyCores() - 1
	c.slab[id*len(c.reg.list)+i] -= jobsOne
	c.head[id] = c.header(busy, s.Failed())
	c.dyn[id] -= c.reg.coreW[i]
	if busy == 0 {
		c.dyn[id] = 0 // shed any accumulated rounding residue
	}
	c.storePower(id)
	if x := c.place; x != nil {
		x.jobsChanged(i, id)
		x.placeGen++
	}
	return nil
}

// DynamicPowerW returns the summed per-core power of the jobs placed on
// the server, before the idle floor, the peak cap and the zero draw of
// a crash, which PowerW applies.
func (s *Server) DynamicPowerW() float64 { return s.c.dyn[s.id] }

// PowerW returns the server's current draw under the linear per-core
// model: idle power plus each occupied core's workload-specific
// dynamic power, capped at the nameplate peak, and 0 while failed.
func (s *Server) PowerW() float64 { return s.c.pow[s.id] }

// AirTempC returns the current air temperature at the wax.
func (s *Server) AirTempC() float64 { return s.c.fleet.AirTempC(s.id) }

// WaxTempC returns the current wax temperature.
func (s *Server) WaxTempC() float64 { return s.c.fleet.WaxTempC(s.id) }

// MeltFrac returns the ground-truth wax melt fraction.
func (s *Server) MeltFrac() float64 { return s.c.fleet.MeltFrac(s.id) }

// ReportedMeltFrac returns the melt fraction from the server's
// lookup-table estimator — the value the cluster scheduler actually
// sees (VMT-WA consumes this, not ground truth) — rewritten by the
// report filter when one is installed. It panics on a cluster without
// estimates: a reader that skipped Cluster.EnableEstimates is a bug,
// and falling back to ground truth would hide it.
func (s *Server) ReportedMeltFrac() float64 {
	if s.c.ests == nil {
		panic(fmt.Sprintf("cluster: server %d: ReportedMeltFrac without estimates (Cluster.EnableEstimates was not called)", s.id))
	}
	f := s.c.ests[s.id].MeltFrac()
	if r := s.filter(); r != nil {
		return r.FilterMeltFrac(f)
	}
	return f
}

// ReportedUtilization returns the utilization the server claims to the
// scheduler: the true value unless a report filter (Byzantine fault)
// rewrites it. Placement bookkeeping never consumes this — it exists
// for telemetry-driven checks, which is exactly why the defense layer
// cross-validates it against the power draw.
func (s *Server) ReportedUtilization() float64 {
	u := s.Utilization()
	if r := s.filter(); r != nil {
		return r.FilterUtilization(u)
	}
	return u
}

// filter returns s's report filter, nil while none is installed.
func (s *Server) filter() ReportFilter {
	if s.c.filters == nil {
		return nil
	}
	return s.c.filters[s.id]
}

// SetReportFilter installs (or, with nil, removes) a report filter,
// moving the cluster's report epoch.
func (s *Server) SetReportFilter(f ReportFilter) {
	c := s.c
	if c.filters == nil {
		c.filters = make([]ReportFilter, len(c.servers))
	}
	c.filters[s.id] = f
	c.reportEpoch++
}

// ReportsQuarantined reports whether the defense layer currently
// distrusts this server's telemetry.
//
//vmt:hotpath
func (s *Server) ReportsQuarantined() bool { return s.c.quarantined[s.id] }

// SetReportsQuarantined flags or clears telemetry quarantine.
func (s *Server) SetReportsQuarantined(q bool) { s.c.quarantined[s.id] = q }

// InletTempC returns the server's inlet temperature.
func (s *Server) InletTempC() float64 { return s.c.fleet.InletTempC(s.id) }

// SetInletTempC overrides the inlet temperature (inlet variation
// studies).
func (s *Server) SetInletTempC(c float64) { s.c.fleet.SetInletTempC(s.id, c) }

// Ledger returns the server's cumulative thermal energy accounting.
func (s *Server) Ledger() thermal.EnergyLedger { return s.c.fleet.Ledger(s.id) }

// AirEnergyJ returns the energy held by the server's air node relative
// to its inlet temperature — the remainder term in the conservation
// balance.
func (s *Server) AirEnergyJ() float64 { return s.c.fleet.AirEnergyJ(s.id) }
