// Package sched defines the cluster scheduler interface and the two
// baseline placement policies the paper evaluates against: round robin
// (the TTS baseline) and coolest first (a thermal-aware load
// balancer). The VMT policies themselves live in internal/core.
package sched

import (
	"fmt"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/workload"
)

// Scheduler decides where jobs are placed and removed. Implementations
// are bound to one cluster at construction and must be deterministic:
// given the same cluster state they return the same server.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Place returns the server that should receive one new job of
	// workload w. The caller performs the placement. Place fails only
	// if the whole cluster is out of cores.
	Place(w workload.Workload) (*cluster.Server, error)
	// SelectRemoval returns the server from which one job of workload
	// w should be evicted when load falls. It fails only if no server
	// runs w.
	SelectRemoval(w workload.Workload) (*cluster.Server, error)
	// Tick runs once per scheduling period, letting stateful policies
	// (VMT-WA) refresh group assignments from the reported wax state.
	// It is not the period's first call. A session tick runs, in order:
	//   - the cluster's Step;
	//   - fault injection, whose crash evacuations call Place, and the
	//     report guard;
	//   - the manager's Reconcile. The load manager calls Tick first.
	//     The stream manager first completes the tasks due, calling
	//     SelectRemoval for each whose job was migrated away, and then
	//     calls Tick;
	//   - after Tick, the placements and evictions that track the load.
	// A policy that caches state derived from the servers' reports
	// must not assume that Tick has run since the last Step (see
	// cluster.Cluster.ReportEpoch).
	Tick(now time.Duration)
}

// ErrNoCapacity is wrapped by Place when the cluster has no free core.
var ErrNoCapacity = fmt.Errorf("sched: cluster out of cores")

// ErrNoJob is wrapped by SelectRemoval when no server runs the
// workload.
var ErrNoJob = fmt.Errorf("sched: no job of requested workload")

// RoundRobin cycles each workload's placements across servers in ID
// order, the scheduler used by the prior TTS work. Cursors are
// per-workload: each service's queries are sharded evenly across the
// fleet (a shared cursor would phase-lock workloads onto disjoint
// server stripes and manufacture thermal imbalance round robin does
// not have in practice). Removals cycle independently so load stays
// even as it falls.
type RoundRobin struct {
	c *cluster.Cluster
	// placeCur and removeCur are indexed by Cluster.WorkloadIndex, so a
	// call reads its cursor without hashing the Workload struct; a
	// workload new to the scheduler starts at server 0.
	placeCur  []int
	removeCur []int
}

// NewRoundRobin returns a round-robin scheduler bound to c.
func NewRoundRobin(c *cluster.Cluster) *RoundRobin {
	return &RoundRobin{c: c}
}

// growCursors extends cur with zero cursors until it covers workload
// index wi.
func growCursors(cur []int, wi int) []int {
	for len(cur) <= wi {
		cur = append(cur, 0)
	}
	return cur
}

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Tick implements Scheduler (stateless per period).
func (r *RoundRobin) Tick(time.Duration) {}

// Place implements Scheduler: the workload's next server in rotation
// with a free core.
func (r *RoundRobin) Place(w workload.Workload) (*cluster.Server, error) {
	n := r.c.Len()
	wi := r.c.WorkloadIndex(w)
	r.placeCur = growCursors(r.placeCur, wi)
	cur := r.placeCur[wi]
	for i := 0; i < n; i++ {
		s := r.c.Server((cur + i) % n)
		if s.FreeCores() > 0 {
			r.placeCur[wi] = (s.ID() + 1) % n
			return s, nil
		}
	}
	return nil, ErrNoCapacity
}

// SelectRemoval implements Scheduler: the workload's next server in
// rotation running it.
func (r *RoundRobin) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	n := r.c.Len()
	wi := r.c.WorkloadIndex(w)
	r.removeCur = growCursors(r.removeCur, wi)
	cur := r.removeCur[wi]
	for i := 0; i < n; i++ {
		s := r.c.Server((cur + i) % n)
		if s.JobsAt(wi) > 0 {
			r.removeCur[wi] = (s.ID() + 1) % n
			return s, nil
		}
	}
	return nil, ErrNoJob
}

// CoolestFirst places each job on the server with the most projected
// thermal headroom and removes from the hottest server running the
// workload. It produces the tight temperature distribution of
// Figure 10 — and melts no more wax than round robin.
//
// "Coolest" is judged on the *projected* steady temperature implied by
// the server's current power draw, not the instantaneous sensor
// reading: sensors lag by the thermal time constant, and a scheduler
// ranking on raw sensors piles every placement of a period onto the
// same momentarily-cool server, saturating machines one at a time —
// the opposite of what a thermal balancer is for.
type CoolestFirst struct {
	c *cluster.Cluster
	// kAirWPerK caches the spec's air conductance; reading it through
	// Config() would copy the whole spec per ranking probe, and the
	// ranking probes every server per placement.
	kAirWPerK float64
}

// NewCoolestFirst returns a coolest-first scheduler bound to c.
func NewCoolestFirst(c *cluster.Cluster) *CoolestFirst {
	return &CoolestFirst{c: c, kAirWPerK: c.Config().Server.AirConductanceWPerK}
}

// Name implements Scheduler.
func (f *CoolestFirst) Name() string { return "coolest-first" }

// Tick implements Scheduler (stateless per period).
func (f *CoolestFirst) Tick(time.Duration) {}

// projectedTempC is the steady-state temperature the server is heading
// toward at its current power draw — the quantity a placement changes
// immediately. Keep in sync with ServerSpec.SteadyAirTempC.
func (f *CoolestFirst) projectedTempC(s *cluster.Server) float64 {
	return s.InletTempC() + s.PowerW()/f.kAirWPerK
}

// Place implements Scheduler.
func (f *CoolestFirst) Place(workload.Workload) (*cluster.Server, error) {
	var best *cluster.Server
	var bestTemp float64
	for _, s := range f.c.Servers() {
		if s.FreeCores() == 0 {
			continue
		}
		t := f.projectedTempC(s)
		if best == nil || t < bestTemp {
			best, bestTemp = s, t
		}
	}
	if best == nil {
		return nil, ErrNoCapacity
	}
	return best, nil
}

// SelectRemoval implements Scheduler.
func (f *CoolestFirst) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	wi := f.c.WorkloadIndex(w)
	var best *cluster.Server
	var bestTemp float64
	for _, s := range f.c.Servers() {
		if s.JobsAt(wi) == 0 {
			continue
		}
		t := f.projectedTempC(s)
		if best == nil || t > bestTemp {
			best, bestTemp = s, t
		}
	}
	if best == nil {
		return nil, ErrNoJob
	}
	return best, nil
}
