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

	// reg is the cluster-wide workload interner; counts[i] is the job
	// count for the workload with registry index i, a row of the
	// registry's job-count slab.
	reg       *registry
	counts    []int32
	busyCores int
	// dynamicPowerW tracks the summed per-core power of placed jobs
	// incrementally. Summing counts on demand would be slow in the
	// scheduler's scan loops, and map-based summation would add floats
	// in randomized iteration order, breaking determinism.
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
// counts.
type ReportFilter interface {
	// FilterUtilization maps the true utilization to the reported one.
	FilterUtilization(trueUtil float64) float64
	// FilterMeltFrac maps the estimator's melt fraction to the
	// reported one.
	FilterMeltFrac(estFrac float64) float64
}

// newServer wires server id into the cluster's dense stores: its
// thermal slot in the fleet, and its estimator initialized in place in
// the cluster-owned estimator column (so the per-tick estimator pass
// streams contiguous memory).
func newServer(id int, spec thermal.ServerSpec, mat pcm.Material, inletC float64, reg *registry, fleet *thermal.Fleet, est *pcm.Estimator) (*Server, error) {
	if err := fleet.Init(id, spec, mat, inletC); err != nil {
		return nil, err
	}
	if err := pcm.InitEstimator(est, mat, spec.WaxVolumeL, inletC, spec.WaxConductanceWPerK); err != nil {
		return nil, err
	}
	return &Server{
		id:    id,
		spec:  spec,
		fleet: fleet,
		est:   est,
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
// injection can interpose a sensor and reset it on repair.
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
	if i < 0 || i >= len(s.counts) {
		return 0
	}
	return int(s.counts[i])
}

// Workloads returns the workloads currently running on the server,
// sorted by name for deterministic iteration.
func (s *Server) Workloads() []workload.Workload {
	var out []workload.Workload
	for i, n := range s.counts {
		if n > 0 {
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
		if i >= len(s.counts) {
			continue
		}
		n := int(s.counts[i])
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
func (s *Server) Place(w workload.Workload) error {
	if s.FreeCores() == 0 {
		return fmt.Errorf("cluster: server %d full", s.id)
	}
	i := s.reg.intern(w)
	s.counts[i]++
	s.busyCores++
	s.dynamicPowerW += w.PerCorePowerW() * s.spec.PowerScale
	if x := s.reg.place; x != nil {
		x.jobsChanged(i, s.id)
	}
	return nil
}

// Remove evicts one job of workload w.
func (s *Server) Remove(w workload.Workload) error {
	i, ok := s.reg.lookup(w)
	if !ok || s.JobsAt(i) == 0 {
		return fmt.Errorf("cluster: server %d has no %s job", s.id, w.Name)
	}
	s.counts[i]--
	s.busyCores--
	s.dynamicPowerW -= w.PerCorePowerW() * s.spec.PowerScale
	if s.busyCores == 0 {
		s.dynamicPowerW = 0 // shed any accumulated rounding residue
	}
	if x := s.reg.place; x != nil {
		x.jobsChanged(i, s.id)
	}
	return nil
}

// PowerW returns the server's current draw under the linear per-core
// model: idle power plus each occupied core's workload-specific
// dynamic power, capped at the nameplate peak.
func (s *Server) PowerW() float64 {
	if s.failed {
		return 0
	}
	p := s.spec.IdlePowerW + s.dynamicPowerW
	if p > s.spec.PeakPowerW {
		p = s.spec.PeakPowerW
	}
	return p
}

// AirTempC returns the current air temperature at the wax.
func (s *Server) AirTempC() float64 { return s.fleet.AirTempC(s.id) }

// WaxTempC returns the current wax temperature.
func (s *Server) WaxTempC() float64 { return s.fleet.WaxTempC(s.id) }

// MeltFrac returns the ground-truth wax melt fraction.
func (s *Server) MeltFrac() float64 { return s.fleet.MeltFrac(s.id) }

// ReportedMeltFrac returns the melt fraction from the server's
// lookup-table estimator — the value the cluster scheduler actually
// sees (VMT-WA consumes this, not ground truth) — rewritten by the
// report filter when one is installed.
func (s *Server) ReportedMeltFrac() float64 {
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

// SetReportFilter installs (or, with nil, removes) a report filter.
func (s *Server) SetReportFilter(f ReportFilter) { s.filter = f }

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

// Settled reports whether the server's last physics step replayed a
// memoized steady-state transition.
func (s *Server) Settled() bool { return s.fleet.Settled(s.id) }

// Ledger returns the server's cumulative thermal energy accounting.
func (s *Server) Ledger() thermal.EnergyLedger { return s.fleet.Ledger(s.id) }

// AirEnergyJ returns the energy held by the server's air node relative
// to its inlet temperature — the remainder term in the conservation
// balance.
func (s *Server) AirEnergyJ() float64 { return s.fleet.AirEnergyJ(s.id) }
