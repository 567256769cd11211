package sched

import (
	"errors"
	"fmt"
	"math"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// LoadManager reconciles the cluster's job population with the job
// source: once per scheduling period it computes each workload's target
// job count (utilization × share × total cores) and asks the bound
// scheduler where to add or evict the difference. This is the
// cluster-level job scheduling loop of Section IV-A. The source can be
// the paper's finite trace or any open-loop generator.
type LoadManager struct {
	c     *cluster.Cluster
	mix   *workload.Mix
	src   workload.JobSource
	sched Scheduler
	// entries and shares cache the mix decomposition (entry order and
	// Share lookups are invariant per run), and counts caches the
	// per-entry job totals so reconciliation neither rescans the
	// cluster nor hashes Workload structs per tick.
	entries []workload.MixEntry
	shares  []float64
	counts  []int
	// placements/evictions/shed are optional instruments (nil-safe).
	placements *telemetry.Counter
	evictions  *telemetry.Counter
	shed       *telemetry.Counter
}

// SetMetrics registers the load manager's counters (sched_placements,
// sched_evictions, sched_jobs_shed) in r. A nil registry leaves the
// manager uninstrumented.
func (m *LoadManager) SetMetrics(r *telemetry.Registry) {
	m.placements = r.Counter("sched_placements")
	m.evictions = r.Counter("sched_evictions")
	m.shed = r.Counter("sched_jobs_shed")
}

// NewLoadManager binds a cluster, workload mix, job source, and
// scheduler.
func NewLoadManager(c *cluster.Cluster, mix *workload.Mix, src workload.JobSource, s Scheduler) (*LoadManager, error) {
	if c == nil || mix == nil || src == nil || s == nil {
		return nil, fmt.Errorf("sched: load manager needs cluster, mix, job source, and scheduler")
	}
	entries := mix.Entries()
	shares := make([]float64, len(entries))
	for i, e := range entries {
		shares[i] = mix.Share(e.Workload.Name)
	}
	return &LoadManager{
		c:       c,
		mix:     mix,
		src:     src,
		sched:   s,
		entries: entries,
		shares:  shares,
		counts:  make([]int, len(entries)),
	}, nil
}

// TargetCores returns the per-workload core target at time now.
func (m *LoadManager) TargetCores(now time.Duration, w workload.Workload) int {
	u := m.src.At(now)
	return int(math.Round(u * m.mix.Share(w.Name) * float64(m.c.TotalCores())))
}

// Reconcile runs one scheduling period: the scheduler's Tick first
// (group maintenance), then per-workload placement/eviction in
// deterministic (name) order. The target arithmetic matches
// TargetCores term for term (u × share × cores, same association), so
// the cached shares change no decisions.
func (m *LoadManager) Reconcile(now time.Duration) error {
	m.sched.Tick(now)
	u := m.src.At(now)
	totalCores := float64(m.c.TotalCores())
	for k, e := range m.entries {
		target := int(math.Round(u * m.shares[k] * totalCores))
		cur := m.counts[k]
		if cur == target {
			continue
		}
		// One registry lookup per entry that moves jobs, resolved here
		// rather than cached at construction so that building a
		// manager interns nothing.
		wi := m.c.WorkloadIndex(e.Workload)
		for cur < target {
			s, err := m.sched.Place(e.Workload)
			if err != nil {
				if errors.Is(err, ErrNoCapacity) {
					// The cluster genuinely has no free core — possible
					// once fault injection takes servers down. The
					// shortfall is not an error: capacity returns with
					// the repairs, and the run must survive the gap.
					// sched_jobs_shed records the explicit load shed.
					m.shed.Add(uint64(target - cur))
					break
				}
				return fmt.Errorf("sched: placing %s at %v: %w", e.Workload.Name, now, err)
			}
			if err := s.PlaceAt(wi); err != nil {
				return fmt.Errorf("sched: %s chose full server %d: %w",
					m.sched.Name(), s.ID(), err)
			}
			m.placements.Inc()
			cur++
		}
		for cur > target {
			s, err := m.sched.SelectRemoval(e.Workload)
			if err != nil {
				return fmt.Errorf("sched: evicting %s at %v: %w", e.Workload.Name, now, err)
			}
			if err := s.RemoveAt(wi); err != nil {
				return fmt.Errorf("sched: %s chose empty server %d: %w",
					m.sched.Name(), s.ID(), err)
			}
			m.evictions.Inc()
			cur--
		}
		m.counts[k] = cur
	}
	return nil
}

// Evacuate moves every job off a crashed server through the normal
// placement logic. s must already be marked failed (so the scheduler
// cannot choose it as a destination). Jobs that find no capacity on
// the survivors are dropped and deducted from the manager's
// bookkeeping; the next Reconcile re-places them if capacity returns.
func (m *LoadManager) Evacuate(s *cluster.Server) (moved, lost int, err error) {
	for k, e := range m.entries {
		// One registry lookup per entry, not one per job moved.
		wi := m.c.WorkloadIndex(e.Workload)
		for s.JobsAt(wi) > 0 {
			if rerr := s.RemoveAt(wi); rerr != nil {
				return moved, lost, fmt.Errorf("sched: evacuating %s from server %d: %w", e.Workload.Name, s.ID(), rerr)
			}
			dst, perr := m.sched.Place(e.Workload)
			if perr != nil {
				if errors.Is(perr, ErrNoCapacity) {
					m.counts[k]--
					lost++
					m.shed.Inc()
					continue
				}
				return moved, lost, perr
			}
			if perr := dst.PlaceAt(wi); perr != nil {
				return moved, lost, fmt.Errorf("sched: %s chose full server %d during evacuation: %w",
					m.sched.Name(), dst.ID(), perr)
			}
			moved++
		}
	}
	return moved, lost, nil
}
