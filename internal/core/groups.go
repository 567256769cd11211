// Package core implements the paper's primary contribution: Virtual
// Melting Temperature job placement. Two policies are provided —
// thermal aware (VMT-TA, Section III-A) and wax aware (VMT-WA,
// Section III-B) — both built on the hot/cold grouping of Equations 1
// and 2:
//
//	hot_group_size  = GV/PMT × num_servers     (Eq. 1)
//	cold_group_size = num_servers − hot_group  (Eq. 2)
//
// Hot-class jobs are concentrated in the hot group so its servers
// exceed the wax's physical melting temperature (PMT) and store heat,
// even when the cluster-average temperature never could — a lower,
// "virtual" melting temperature.
package core

import (
	"fmt"
	"math"

	"vmt/internal/cluster"
	"vmt/internal/sched"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// HotGroupSize evaluates Equation 1, clamped to [0, numServers].
func HotGroupSize(gv, pmtC float64, numServers int) int {
	if pmtC <= 0 {
		return 0
	}
	n := int(math.Round(gv / pmtC * float64(numServers)))
	if n < 0 {
		n = 0
	}
	if n > numServers {
		n = numServers
	}
	return n
}

// groups tracks the hot/cold partition over a cluster. Servers with ID
// < hotSize form the hot group; the paper notes the groups need not be
// physically contiguous, so using the ID prefix loses no generality
// while keeping heat maps legible (hot group at the bottom, as in
// Figure 14).
type groups struct {
	c       *cluster.Cluster
	hotSize int
	// cursor rotates tie-breaking across scans: without it, "lowest
	// ID wins" hands every ±1 leftover job to the same few servers,
	// and that systematic bias (≈0.5 °C) smears per-server melt state
	// far more than the paper's uniform groups.
	cursor int
	// idx answers the unfiltered scans when the cluster is large enough
	// to have a placement index; nil means every scan is linear.
	idx placementIndex
}

// placementIndex is the part of *cluster.PlacementIndex that groups
// calls; the differential test substitutes a wrapper that checks every
// answer against the linear scan.
type placementIndex interface {
	LeastBusy(w, lo, hi, from int) *cluster.Server
	MostBusyWith(w, lo, hi, from int) *cluster.Server
}

// newGroups returns groups over c with the given hot-group size, using
// the cluster's placement index when it has one.
func newGroups(c *cluster.Cluster, hotSize int) groups {
	g := groups{c: c, hotSize: hotSize}
	if x := c.PlacementIndex(); x != nil {
		g.idx = x
	}
	return g
}

func (g *groups) isHot(s *cluster.Server) bool { return s.ID() < g.hotSize }

// sizeForAlive maps a target of alive hot servers to an ID-prefix
// length: the smallest prefix containing target alive (non-failed)
// servers. With no failures this is the identity (clamped to the
// cluster size), so fault-free runs never pay the scan; with failures
// the hot group stretches past crashed IDs so the policy keeps its
// intended count of working hot servers.
func (g *groups) sizeForAlive(target int) int {
	n := g.c.Len()
	if target <= 0 {
		return 0
	}
	if target > n {
		target = n
	}
	if g.c.FailedServers() == 0 {
		return target
	}
	alive := 0
	for i := 0; i < n; i++ {
		if !g.c.Server(i).Failed() {
			alive++
			if alive == target {
				return i + 1
			}
		}
	}
	return n
}

// leastBusy returns the best placement target with a free core among
// servers [lo,hi) that satisfy keep (nil = all): fewest jobs of w
// first (even per-workload spread keeps server thermal compositions
// uniform within a group), then fewest busy cores, with ties rotating.
// Returns nil if none qualify. Each call over a non-empty range
// advances the cursor by exactly one; unfiltered calls go to the
// placement index when there is one, which returns what the scan
// would.
//
//vmt:hotpath
func (g *groups) leastBusy(lo, hi int, w workload.Workload, keep func(*cluster.Server) bool) *cluster.Server {
	wi := g.c.WorkloadIndex(w)
	n := hi - lo
	if n <= 0 {
		return nil
	}
	g.cursor++
	from := lo + g.cursor%n
	if keep == nil && g.idx != nil {
		return g.idx.LeastBusy(wi, lo, hi, from)
	}
	return scanLeastBusy(g.c.Servers(), lo, hi, from, wi, keep)
}

// mostBusyWith returns the server in [lo,hi) running w with the most
// jobs of w (ties rotating), optionally filtered by keep. Cursor and
// index as for leastBusy.
//
//vmt:hotpath
func (g *groups) mostBusyWith(lo, hi int, w workload.Workload, keep func(*cluster.Server) bool) *cluster.Server {
	wi := g.c.WorkloadIndex(w)
	n := hi - lo
	if n <= 0 {
		return nil
	}
	g.cursor++
	from := lo + g.cursor%n
	if keep == nil && g.idx != nil {
		return g.idx.MostBusyWith(wi, lo, hi, from)
	}
	return scanMostBusyWith(g.c.Servers(), lo, hi, from, wi, keep)
}

// scanLeastBusy is leastBusy's linear scan of servers[lo:hi], visiting
// from first and wrapping to lo (lo ≤ from < hi), for workload index
// wi. It serves keep-filtered calls and clusters without an index, and
// is the reference the placement index is tested against.
//
// The rotating scan is written as a direct loop: placement scans run
// hundreds of times per tick, and routing each visit through a
// closure (capturing the comparison state) was a measurable share of
// whole-run CPU.
//
//vmt:hotpath
func scanLeastBusy(servers []*cluster.Server, lo, hi, from, wi int, keep func(*cluster.Server) bool) *cluster.Server {
	var best *cluster.Server
	bestJobs := 0
	// Walk [from, hi) then [lo, from) with a wrapping index instead of
	// a per-visit modulo — same visit order, two integer ops cheaper on
	// a loop that runs for every placement decision. The common nil
	// filter gets its own loop without the per-visit keep check.
	idx := from
	if keep == nil {
		for i := lo; i < hi; i++ {
			s := servers[idx]
			idx++
			if idx == hi {
				idx = lo
			}
			if s.FreeCores() == 0 {
				continue
			}
			j := s.JobsAt(wi)
			if best == nil || j < bestJobs ||
				(j == bestJobs && s.BusyCores() < best.BusyCores()) {
				best, bestJobs = s, j
			}
		}
		return best
	}
	for i := lo; i < hi; i++ {
		s := servers[idx]
		idx++
		if idx == hi {
			idx = lo
		}
		if s.FreeCores() == 0 {
			continue
		}
		if !keep(s) {
			continue
		}
		j := s.JobsAt(wi)
		if best == nil || j < bestJobs ||
			(j == bestJobs && s.BusyCores() < best.BusyCores()) {
			best, bestJobs = s, j
		}
	}
	return best
}

// scanMostBusyWith is mostBusyWith's linear scan, in scanLeastBusy's
// visit order.
//
//vmt:hotpath
func scanMostBusyWith(servers []*cluster.Server, lo, hi, from, wi int, keep func(*cluster.Server) bool) *cluster.Server {
	var best *cluster.Server
	bestJobs := 0
	idx := from
	if keep == nil {
		for i := lo; i < hi; i++ {
			s := servers[idx]
			idx++
			if idx == hi {
				idx = lo
			}
			j := s.JobsAt(wi)
			if j == 0 {
				continue
			}
			if best == nil || j > bestJobs {
				best, bestJobs = s, j
			}
		}
		return best
	}
	for i := lo; i < hi; i++ {
		s := servers[idx]
		idx++
		if idx == hi {
			idx = lo
		}
		j := s.JobsAt(wi)
		if j == 0 {
			continue
		}
		if !keep(s) {
			continue
		}
		if best == nil || j > bestJobs {
			best, bestJobs = s, j
		}
	}
	return best
}

// Config carries the knobs shared by both VMT policies.
type Config struct {
	// GV is the grouping value of Equation 1.
	GV float64
	// WaxThreshold is the reported melt fraction above which VMT-WA
	// considers a server "fully melted" (the paper fixes 0.98;
	// Figure 17 sweeps it). VMT-TA ignores it.
	WaxThreshold float64
	// OracleWaxState makes VMT-WA read ground-truth melt fractions
	// instead of the per-server lookup-table estimates — an ablation
	// quantifying what perfect wax-state knowledge would buy.
	OracleWaxState bool
	// MigrationBudgetFrac caps VMT-WA's per-tick job migrations as a
	// fraction of the cluster's cores; zero selects the default 0.25.
	// An ablation knob for the rebalancing granularity.
	MigrationBudgetFrac float64
	// Metrics, when non-nil, receives scheduler instrumentation:
	// sched_hot_group_resizes, sched_threshold_trips (servers crossing
	// the wax threshold), and sched_migrations (VMT-WA rebalancing
	// moves). Purely observational — placement decisions never read it.
	Metrics *telemetry.Registry
}

// DefaultWaxThreshold is the paper's operating point.
const DefaultWaxThreshold = 0.98

// Validate reports whether the configuration is usable for a cluster
// of the given PMT.
func (cfg Config) Validate() error {
	if cfg.GV <= 0 {
		return fmt.Errorf("core: GV must be positive, got %v", cfg.GV)
	}
	if cfg.WaxThreshold < 0 || cfg.WaxThreshold > 1 {
		return fmt.Errorf("core: wax threshold %v out of [0,1]", cfg.WaxThreshold)
	}
	if cfg.MigrationBudgetFrac < 0 || cfg.MigrationBudgetFrac > 1 {
		return fmt.Errorf("core: migration budget fraction %v out of [0,1]", cfg.MigrationBudgetFrac)
	}
	return nil
}

// Interface checks.
var (
	_ sched.Scheduler = (*ThermalAware)(nil)
	_ sched.Scheduler = (*WaxAware)(nil)
)
