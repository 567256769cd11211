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

// Server is one simulated machine: job bookkeeping plus a view onto
// its slot in the cluster's struct-of-arrays thermal store. Jobs are
// single-core tasks tagged with their workload; per Section IV-B they
// are assigned separate physical cores and never share SMT contexts.
//
// The thermal state itself lives in the cluster-owned thermal.Fleet —
// parallel slices indexed by server ID, advanced by one cache-friendly
// loop per Step — and the thermal accessors here delegate to that
// store, so the public Server API is unchanged from the per-Node
// layout it replaces.
type Server struct {
	id    int
	spec  thermal.ServerSpec
	fleet *thermal.Fleet
	est   *pcm.Estimator

	// cores caches spec.Cores(): the scheduler scan loops read
	// FreeCores for every server they visit, and the spec is immutable
	// after construction.
	cores int

	// reg is the cluster-wide workload interner; keys[i] is the place
	// key (index.go) of the workload with registry index i, and keys is
	// the server's row of the registry's key slab.
	reg       *registry
	keys      []uint32
	busyCores int
	// dynamicPowerW tracks the summed per-core power of placed jobs
	// incrementally, the input storePower derives the server's entry in
	// the power column from. Summing counts on demand would be slow, and
	// map-based summation would add floats in randomized iteration
	// order, breaking determinism.
	dynamicPowerW float64

	// failed marks a crashed server (fault injection): it draws no
	// power and offers no capacity until repaired, but its physics
	// keeps stepping so the wax refreezes realistically.
	failed bool

	// filter interposes on the server's *reported* telemetry
	// (utilization, melt fraction) without touching the authoritative
	// bookkeeping — the seam Byzantine fault injection uses to make a
	// server lie to the scheduler while physics and placement stay
	// truthful.
	filter ReportFilter

	// quarantined marks a server whose reports the defense layer has
	// flagged as implausible: schedulers should ignore its telemetry
	// and fall back to trust-free placement for it.
	quarantined bool
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

// newServer wires server id into its thermal slot in the cluster's
// fleet store. Its estimator stays nil until Cluster.EnableEstimates.
func newServer(id int, spec thermal.ServerSpec, mat pcm.Material, inletC float64, reg *registry, fleet *thermal.Fleet) (*Server, error) {
	if err := fleet.Init(id, spec, mat, inletC); err != nil {
		return nil, err
	}
	return &Server{
		id:    id,
		spec:  spec,
		fleet: fleet,
		cores: spec.Cores(),
		reg:   reg,
	}, nil
}

// ID returns the server's index within its cluster.
func (s *Server) ID() int { return s.id }

// Cores returns the server's total core count.
func (s *Server) Cores() int { return s.cores }

// BusyCores returns the number of occupied cores.
//
//vmt:hotpath
func (s *Server) BusyCores() int { return s.busyCores }

// FreeCores returns the number of unoccupied cores. A failed server
// has none, which keeps every scheduler scan loop from placing onto
// it without any policy-side special-casing.
//
//vmt:hotpath
func (s *Server) FreeCores() int {
	if s.failed {
		return 0
	}
	return s.cores - s.busyCores
}

// Failed reports whether the server is currently crashed.
//
//vmt:hotpath
func (s *Server) Failed() bool { return s.failed }

// Estimator exposes the server's melt-fraction estimator so fault
// injection can interpose a sensor and reset it on repair. It is nil
// until Cluster.EnableEstimates.
func (s *Server) Estimator() *pcm.Estimator { return s.est }

// Jobs returns the job count for workload w.
func (s *Server) Jobs(w workload.Workload) int {
	i, ok := s.reg.lookup(w)
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
	if i < 0 || i >= len(s.keys) {
		return 0
	}
	return int(s.keys[i] & jobsMask >> jobsShift)
}

// Workloads returns the workloads currently running on the server,
// sorted by name for deterministic iteration.
func (s *Server) Workloads() []workload.Workload {
	var out []workload.Workload
	for i, k := range s.keys {
		if k&jobsMask != 0 {
			out = append(out, s.reg.list[i])
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
	for _, i := range s.reg.byName {
		n := s.JobsAt(i)
		if n == 0 {
			continue
		}
		w := s.reg.list[i]
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
	return float64(s.busyCores) / float64(s.cores)
}

// Place assigns one job of workload w to a free core.
func (s *Server) Place(w workload.Workload) error { return s.PlaceAt(s.reg.intern(w)) }

// PlaceAt assigns one job of the workload with registry index i (see
// Cluster.WorkloadIndex) to a free core — the hash-free form of Place
// for callers that hold the index.
func (s *Server) PlaceAt(i int) error {
	if s.FreeCores() == 0 {
		return fmt.Errorf("cluster: server %d full", s.id)
	}
	s.keys[i] += jobsOne
	s.busyCores++
	s.packRow()
	s.dynamicPowerW += s.reg.coreW[i]
	s.storePower()
	if x := s.reg.place; x != nil {
		x.jobsChanged(i, s.id)
	}
	return nil
}

// Remove evicts one job of workload w.
func (s *Server) Remove(w workload.Workload) error {
	i, ok := s.reg.lookup(w)
	if !ok {
		return fmt.Errorf("cluster: server %d has no %s job", s.id, w.Name)
	}
	return s.RemoveAt(i)
}

// RemoveAt evicts one job of the workload with registry index i (see
// Cluster.WorkloadIndex) — the hash-free form of Remove.
func (s *Server) RemoveAt(i int) error {
	if s.JobsAt(i) == 0 {
		return fmt.Errorf("cluster: server %d has no %s job", s.id, s.reg.list[i].Name)
	}
	s.keys[i] -= jobsOne
	s.busyCores--
	s.packRow()
	s.dynamicPowerW -= s.reg.coreW[i]
	if s.busyCores == 0 {
		s.dynamicPowerW = 0 // shed any accumulated rounding residue
	}
	s.storePower()
	if x := s.reg.place; x != nil {
		x.jobsChanged(i, s.id)
	}
	return nil
}

// header is the part of s's place keys that every workload shares:
// the full bit while s is failed or has no free core, and its busy
// cores.
//
//vmt:hotpath
func (s *Server) header() uint32 {
	h := uint32(s.busyCores)
	if s.failed || s.busyCores >= s.cores {
		h |= fullBit
	}
	return h
}

// packRow rewrites s's row of the key slab after its busy cores or
// failed state changed, keeping each key's job count. Before the
// cluster's first group query it does nothing: that query packs every
// row (Cluster.packKeys).
//
//vmt:hotpath
func (s *Server) packRow() {
	if !s.reg.packed {
		return
	}
	h := s.header()
	for i, k := range s.keys {
		s.keys[i] = k&jobsMask | h
	}
}

// storePower writes s's draw into the registry's power column after
// its jobs or failed state changed: idle power plus the dynamic power
// of its jobs, capped at the nameplate peak, and 0 while failed.
func (s *Server) storePower() {
	p := 0.0
	if !s.failed {
		p = s.spec.IdlePowerW + s.dynamicPowerW
		if p > s.spec.PeakPowerW {
			p = s.spec.PeakPowerW
		}
	}
	s.reg.pow[s.id] = p
}

// DynamicPowerW returns the summed per-core power of the jobs placed on
// the server, before the idle floor, the peak cap and the zero draw of
// a crash, which PowerW applies.
func (s *Server) DynamicPowerW() float64 { return s.dynamicPowerW }

// PowerW returns the server's current draw under the linear per-core
// model: idle power plus each occupied core's workload-specific
// dynamic power, capped at the nameplate peak, and 0 while failed.
func (s *Server) PowerW() float64 { return s.reg.pow[s.id] }

// AirTempC returns the current air temperature at the wax.
func (s *Server) AirTempC() float64 { return s.fleet.AirTempC(s.id) }

// WaxTempC returns the current wax temperature.
func (s *Server) WaxTempC() float64 { return s.fleet.WaxTempC(s.id) }

// MeltFrac returns the ground-truth wax melt fraction.
func (s *Server) MeltFrac() float64 { return s.fleet.MeltFrac(s.id) }

// ReportedMeltFrac returns the melt fraction from the server's
// lookup-table estimator — the value the cluster scheduler actually
// sees (VMT-WA consumes this, not ground truth) — rewritten by the
// report filter when one is installed. It panics on a cluster without
// estimates: a reader that skipped Cluster.EnableEstimates is a bug,
// and falling back to ground truth would hide it.
func (s *Server) ReportedMeltFrac() float64 {
	if s.est == nil {
		panic(fmt.Sprintf("cluster: server %d: ReportedMeltFrac without estimates (Cluster.EnableEstimates was not called)", s.id))
	}
	f := s.est.MeltFrac()
	if s.filter != nil {
		return s.filter.FilterMeltFrac(f)
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
	if s.filter != nil {
		return s.filter.FilterUtilization(u)
	}
	return u
}

// SetReportFilter installs (or, with nil, removes) a report filter,
// moving the cluster's report epoch.
func (s *Server) SetReportFilter(f ReportFilter) {
	s.filter = f
	s.reg.reportEpoch++
}

// ReportsQuarantined reports whether the defense layer currently
// distrusts this server's telemetry.
//
//vmt:hotpath
func (s *Server) ReportsQuarantined() bool { return s.quarantined }

// SetReportsQuarantined flags or clears telemetry quarantine.
func (s *Server) SetReportsQuarantined(q bool) { s.quarantined = q }

// InletTempC returns the server's inlet temperature.
func (s *Server) InletTempC() float64 { return s.fleet.InletTempC(s.id) }

// SetInletTempC overrides the inlet temperature (inlet variation
// studies).
func (s *Server) SetInletTempC(c float64) { s.fleet.SetInletTempC(s.id, c) }

// Ledger returns the server's cumulative thermal energy accounting.
func (s *Server) Ledger() thermal.EnergyLedger { return s.fleet.Ledger(s.id) }

// AirEnergyJ returns the energy held by the server's air node relative
// to its inlet temperature — the remainder term in the conservation
// balance.
func (s *Server) AirEnergyJ() float64 { return s.fleet.AirEnergyJ(s.id) }
