package sched

import (
	"fmt"
	"math"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// StreamManager is the query-level alternative to LoadManager: instead
// of reconciling fluid job counts against the trace, task-like
// workloads (video encoding, virus scanning, clustering) arrive as
// discrete jobs — a Poisson stream whose rate tracks the trace — run
// for a sampled duration on the core they were placed on, and leave.
// Latency-critical services (Web Search, Data Caching) remain fluid:
// their serving capacity is resized continuously with load, which is
// how real deployments autoscale them.
//
// When an arrival finds no free core anywhere, it is *dropped* and
// counted — the QoS failure mode the paper warns about when VMT's
// groups are sized too small ("individual queries must be dropped or
// queued causing QoS degradation"). Drop counts make group-sizing
// mistakes observable.
type StreamManager struct {
	c     *cluster.Cluster
	src   workload.JobSource
	sched Scheduler
	rng   *stats.RNG

	// entries caches the mix decomposition (name order), and means[k]
	// is entry k's mean task duration, 0 for a fluid service. The
	// per-entry ledgers below are indexed like entries, so the per-task
	// path neither rebuilds the entry list nor hashes Workload structs.
	entries     []workload.MixEntry
	means       []time.Duration
	fluidCounts []int
	// lostCredits[k] counts tasks of entry k dropped during an
	// evacuation whose completion entries are still in the heap. Task
	// jobs are fungible, so when a completion eventually fires with no
	// job of the workload left anywhere, a credit absorbs it instead
	// of erroring.
	lostCredits []int
	completions completionHeap
	dropped     uint64
	arrived     uint64
	lastNow     time.Duration
	started     bool

	// Optional instruments (nil-safe).
	placements   *telemetry.Counter
	evictions    *telemetry.Counter
	taskArrivals *telemetry.Counter
	taskDrops    *telemetry.Counter
	shed         *telemetry.Counter
}

// SetMetrics registers the stream manager's counters in r:
// sched_placements, sched_evictions, sched_task_arrivals,
// sched_task_drops, and sched_jobs_shed (work explicitly shed because
// the cluster had no capacity for it — a subset of the drops). A nil
// registry leaves it uninstrumented.
func (m *StreamManager) SetMetrics(r *telemetry.Registry) {
	m.placements = r.Counter("sched_placements")
	m.evictions = r.Counter("sched_evictions")
	m.taskArrivals = r.Counter("sched_task_arrivals")
	m.taskDrops = r.Counter("sched_task_drops")
	m.shed = r.Counter("sched_jobs_shed")
}

// DefaultTaskDurations returns the task model for the paper mix:
// encoding a video ≈ 8 min, scanning an upload ≈ 2 min, one clustering
// batch ≈ 20 min. (Durations are means of exponential distributions.)
func DefaultTaskDurations() map[string]time.Duration {
	return map[string]time.Duration{
		"VideoEncoding": 8 * time.Minute,
		"VirusScan":     2 * time.Minute,
		"Clustering":    20 * time.Minute,
	}
}

// NewStreamManager builds a query-level load manager. durations maps
// task-like workload names to mean task durations; mix workloads
// absent from it are treated as fluid services. seed drives the
// arrival and duration draws; identical seeds reproduce identical
// streams.
func NewStreamManager(c *cluster.Cluster, mix *workload.Mix, src workload.JobSource,
	s Scheduler, durations map[string]time.Duration, seed uint64) (*StreamManager, error) {
	if c == nil || mix == nil || src == nil || s == nil {
		return nil, fmt.Errorf("sched: stream manager needs cluster, mix, job source, and scheduler")
	}
	for name, d := range durations {
		if d <= 0 {
			return nil, fmt.Errorf("sched: task duration for %s must be positive", name)
		}
	}
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("sched: stream manager supports at most %d servers, got %d", math.MaxInt32, c.Len())
	}
	entries := mix.Entries()
	means := make([]time.Duration, len(entries))
	for k, e := range entries {
		means[k] = durations[e.Workload.Name]
	}
	return &StreamManager{
		c:           c,
		src:         src,
		sched:       s,
		rng:         stats.NewRNG(seed ^ 0x9e3779b97f4a7c15),
		entries:     entries,
		means:       means,
		fluidCounts: make([]int, len(entries)),
		lostCredits: make([]int, len(entries)),
	}, nil
}

// Dropped returns the number of drop events so far: one per task
// arrival that found no free core, one per task an evacuation could
// not re-place, and one per fluid resize that fell short of its
// target (an event, however many cores the resize missed).
func (m *StreamManager) Dropped() uint64 { return m.dropped }

// Arrived returns the total task arrivals so far.
func (m *StreamManager) Arrived() uint64 { return m.arrived }

// completion is a scheduled task departure of entry's workload from
// server. It holds no pointers, so moving it within the heap costs no
// GC write barriers.
type completion struct {
	at     time.Duration
	server int32
	entry  int32
}

// completionHeap is a binary min-heap of completions keyed on at.
// push and pop make exactly the comparisons of container/heap's Push
// and Pop (its up and down), and each of their moves does what one
// container/heap swap does to the sifted element, so the array layout
// after every operation is the one container/heap would produce.
// Completions with equal at therefore pop in container/heap's order,
// which matters: the order can decide which server a fallback
// SelectRemoval takes a migrated task from.
type completionHeap []completion

// push adds c, sifting it up from the end.
func (h *completionHeap) push(c completion) {
	q := append(*h, c)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(c.at < q[i].at) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = c
	*h = q
}

// pop removes and returns the earliest completion: the last element
// takes the root's place and sifts down, the lesser child winning and
// the left one on ties. The heap must not be empty.
//
//vmt:hotpath
func (h *completionHeap) pop() completion {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q[j+1].at < q[j].at {
			j++
		}
		if !(q[j].at < x.at) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	*h = q[:n]
	return top
}

// Reconcile runs one scheduling period at time now: task departures
// first, then the scheduler's Tick, then fluid resizing, then new task
// arrivals for the elapsed interval.
func (m *StreamManager) Reconcile(now time.Duration) error {
	// 1. Complete tasks whose time has come.
	for len(m.completions) > 0 && m.completions[0].at <= now {
		if err := m.finishTask(m.completions.pop()); err != nil {
			return err
		}
	}

	m.sched.Tick(now)

	// 2. Fluid services track the trace exactly (their share of cores).
	for k, e := range m.entries {
		if m.means[k] != 0 {
			continue
		}
		target := int(math.Round(m.src.At(now) * e.Share * float64(m.c.TotalCores())))
		if err := m.resizeFluid(k, target, now); err != nil {
			return err
		}
	}

	// 3. Task arrivals over the elapsed interval (skipped on the very
	// first call, which only seeds the fluid baseline).
	if m.started {
		dt := now - m.lastNow
		if dt > 0 {
			if err := m.arrivals(now, dt); err != nil {
				return err
			}
		}
	}
	m.started = true
	m.lastNow = now
	return nil
}

// finishTask removes a departing task, preferring the server it was
// placed on; if the scheduler migrated it away (jobs of one workload
// are fungible), any server running the workload serves.
func (m *StreamManager) finishTask(c completion) error {
	w := m.entries[c.entry].Workload
	s := m.c.Server(int(c.server))
	if s.Jobs(w) == 0 {
		var err error
		s, err = m.sched.SelectRemoval(w)
		if err != nil {
			if m.lostCredits[c.entry] > 0 {
				// The task this completion belonged to was dropped
				// during an evacuation; its count was deducted then.
				m.lostCredits[c.entry]--
				return nil
			}
			return fmt.Errorf("sched: completing %s task: %w", w.Name, err)
		}
	}
	if err := s.Remove(w); err != nil {
		return err
	}
	m.evictions.Inc()
	return nil
}

// resizeFluid adjusts fluid entry k's footprint to target cores.
func (m *StreamManager) resizeFluid(k, target int, now time.Duration) error {
	w := m.entries[k].Workload
	cur := m.fluidCounts[k]
	for cur < target {
		s, err := m.sched.Place(w)
		if err != nil {
			// The cluster is momentarily full of tasks; serve what we
			// can and try again next period (counted as degradation).
			// The whole remaining shortfall is shed at once.
			m.dropped++
			m.taskDrops.Inc()
			m.shed.Add(uint64(target - cur))
			break
		}
		if err := s.Place(w); err != nil {
			return err
		}
		m.placements.Inc()
		cur++
	}
	for cur > target {
		s, err := m.sched.SelectRemoval(w)
		if err != nil {
			return fmt.Errorf("sched: shrinking %s at %v: %w", w.Name, now, err)
		}
		if err := s.Remove(w); err != nil {
			return err
		}
		m.evictions.Inc()
		cur--
	}
	m.fluidCounts[k] = cur
	return nil
}

// arrivals draws the interval's Poisson arrivals per task workload and
// places them.
func (m *StreamManager) arrivals(now, dt time.Duration) error {
	u := m.src.At(now)
	for k, e := range m.entries {
		mean := m.means[k]
		if mean == 0 {
			continue
		}
		// Little's law: to hold e.Share×u of the cores busy with tasks
		// of mean duration D, arrivals must come at rate N·u·share/D.
		targetBusy := u * e.Share * float64(m.c.TotalCores())
		lambda := targetBusy / mean.Seconds() * dt.Seconds()
		n := m.poisson(lambda)
		for i := 0; i < n; i++ {
			m.arrived++
			m.taskArrivals.Inc()
			s, err := m.sched.Place(e.Workload)
			if err != nil {
				m.dropped++
				m.taskDrops.Inc()
				m.shed.Inc()
				continue
			}
			if err := s.Place(e.Workload); err != nil {
				return err
			}
			m.placements.Inc()
			d := m.expDuration(mean)
			m.completions.push(completion{at: now + d, server: int32(s.ID()), entry: int32(k)})
		}
	}
	return nil
}

// poisson draws a Poisson deviate with the given mean. It delegates to
// the shared stats implementation, which consumes the identical RNG
// call sequence the in-package version did.
func (m *StreamManager) poisson(lambda float64) int {
	return m.rng.Poisson(lambda)
}

// Evacuate moves every job off a crashed server through the normal
// placement logic. s must already be marked failed. Fluid jobs that
// find no capacity are deducted from the service footprint (the next
// Reconcile re-grows it when capacity returns); lost task jobs are
// counted as drops and leave a completion credit behind so their
// still-scheduled departures don't error.
func (m *StreamManager) Evacuate(s *cluster.Server) (moved, lost int, err error) {
	for k, e := range m.entries {
		w := e.Workload
		for s.Jobs(w) > 0 {
			if rerr := s.Remove(w); rerr != nil {
				return moved, lost, fmt.Errorf("sched: evacuating %s from server %d: %w", w.Name, s.ID(), rerr)
			}
			dst, perr := m.sched.Place(w)
			if perr != nil {
				lost++
				m.shed.Inc()
				if m.means[k] != 0 {
					m.lostCredits[k]++
					m.dropped++
					m.taskDrops.Inc()
				} else {
					m.fluidCounts[k]--
				}
				continue
			}
			if perr := dst.Place(w); perr != nil {
				return moved, lost, fmt.Errorf("sched: %s chose full server %d during evacuation: %w",
					m.sched.Name(), dst.ID(), perr)
			}
			moved++
		}
	}
	return moved, lost, nil
}

// expDuration samples an exponential task duration with the given
// mean, floored at one second.
func (m *StreamManager) expDuration(mean time.Duration) time.Duration {
	u := m.rng.Float64()
	for u == 0 { //vmtlint:allow floateq rejects the exact 0.0 draw so log(u) stays finite
		u = m.rng.Float64()
	}
	d := time.Duration(-math.Log(u) * float64(mean))
	if d < time.Second {
		d = time.Second
	}
	return d
}
