package sched

import (
	"container/heap"
	"math"
	"testing"
	"time"

	"vmt/internal/stats"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

func flatTrace(t *testing.T, util float64, hours int) *trace.Trace {
	t.Helper()
	samples := make([]float64, hours*60+1)
	for i := range samples {
		samples[i] = util
	}
	tr, err := trace.FromSamples(samples, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStreamManagerValidation(t *testing.T) {
	c := newCluster(t, 2)
	mix := workload.PaperMix()
	tr := flatTrace(t, 0.5, 1)
	if _, err := NewStreamManager(nil, mix, tr, NewRoundRobin(c), nil, 1); err == nil {
		t.Fatal("nil cluster should fail")
	}
	if _, err := NewStreamManager(c, mix, tr, NewRoundRobin(c),
		map[string]time.Duration{"VideoEncoding": 0}, 1); err == nil {
		t.Fatal("zero duration should fail")
	}
}

// Under a flat trace, Little's law holds: the busy-core population per
// task workload hovers around utilization × share × cores.
func TestStreamManagerLittlesLaw(t *testing.T) {
	c := newCluster(t, 20) // 640 cores
	mix := workload.PaperMix()
	tr := flatTrace(t, 0.5, 12)
	lm, err := NewStreamManager(c, mix, tr, NewRoundRobin(c), DefaultTaskDurations(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var samples []float64
	for minute := 0; minute <= 12*60; minute++ {
		now := time.Duration(minute) * time.Minute
		if err := lm.Reconcile(now); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
		if minute > 2*60 { // past warm-up
			samples = append(samples, float64(c.JobCount(workload.VideoEncoding)))
		}
	}
	want := 0.5 * mix.Share("VideoEncoding") * 640 // 48 cores
	var mean float64
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	if math.Abs(mean-want) > want*0.15 {
		t.Fatalf("video population mean %.1f, want ≈%.1f", mean, want)
	}
	// Fluid services track exactly.
	wantSearch := int(math.Round(0.5 * mix.Share("WebSearch") * 640))
	if got := c.JobCount(workload.WebSearch); got != wantSearch {
		t.Fatalf("search cores = %d, want %d", got, wantSearch)
	}
	if lm.Arrived() == 0 {
		t.Fatal("no arrivals recorded")
	}
}

// Total cores never exceed capacity, and a saturating load produces
// drops rather than errors.
func TestStreamManagerDropsWhenFull(t *testing.T) {
	c := newCluster(t, 2) // tiny cluster
	mix := workload.PaperMix()
	tr := flatTrace(t, 0.99, 6)
	lm, err := NewStreamManager(c, mix, tr, NewRoundRobin(c), DefaultTaskDurations(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for minute := 0; minute <= 6*60; minute++ {
		if err := lm.Reconcile(time.Duration(minute) * time.Minute); err != nil {
			t.Fatal(err)
		}
		if c.BusyCores() > c.TotalCores() {
			t.Fatal("over capacity")
		}
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if lm.Dropped() == 0 {
		t.Fatal("a saturated cluster should drop some arrivals")
	}
}

func TestStreamManagerDeterministic(t *testing.T) {
	run := func() (uint64, int) {
		c := newCluster(t, 5)
		mix := workload.PaperMix()
		tr := flatTrace(t, 0.6, 4)
		lm, err := NewStreamManager(c, mix, tr, NewRoundRobin(c), DefaultTaskDurations(), 42)
		if err != nil {
			t.Fatal(err)
		}
		for minute := 0; minute <= 4*60; minute++ {
			if err := lm.Reconcile(time.Duration(minute) * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		return lm.Arrived(), c.BusyCores()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

// Completions always find a job to remove, even when the scheduler has
// migrated tasks between servers (VMT-WA rebalancing).
func TestStreamManagerSurvivesMigration(t *testing.T) {
	c := newCluster(t, 4)
	mix := workload.PaperMix()
	tr := flatTrace(t, 0.6, 3)
	lm, err := NewStreamManager(c, mix, tr, NewRoundRobin(c), DefaultTaskDurations(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for minute := 0; minute <= 60; minute++ {
		if err := lm.Reconcile(time.Duration(minute) * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	// Manually migrate every VideoEncoding job to different servers,
	// simulating an aggressive rebalancer.
	moved := 0
	for i := 0; i < 4; i++ {
		s := c.Server(i)
		for s.Jobs(workload.VideoEncoding) > 0 {
			dst := c.Server((i + 1) % 4)
			if dst.FreeCores() == 0 {
				break
			}
			if err := s.Remove(workload.VideoEncoding); err != nil {
				t.Fatal(err)
			}
			if err := dst.Place(workload.VideoEncoding); err != nil {
				t.Fatal(err)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Skip("no jobs to migrate at this seed")
	}
	// All pending completions must still succeed.
	for minute := 61; minute <= 3*60; minute++ {
		if err := lm.Reconcile(time.Duration(minute) * time.Minute); err != nil {
			t.Fatalf("completion after migration failed: %v", err)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	c := newCluster(t, 1)
	lm, err := NewStreamManager(c, workload.PaperMix(), flatTrace(t, 0.5, 1),
		NewRoundRobin(c), DefaultTaskDurations(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.5, 5, 200} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(lm.rng.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Fatalf("poisson(%v) mean = %v", lambda, mean)
		}
	}
	if lm.rng.Poisson(0) != 0 || lm.rng.Poisson(-1) != 0 {
		t.Fatal("non-positive lambda should give zero")
	}
}

func TestExpDurationMean(t *testing.T) {
	c := newCluster(t, 1)
	lm, err := NewStreamManager(c, workload.PaperMix(), flatTrace(t, 0.5, 1),
		NewRoundRobin(c), DefaultTaskDurations(), 9)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += lm.expDuration(10 * time.Minute)
	}
	mean := sum / n
	if mean < 9*time.Minute || mean > 11*time.Minute {
		t.Fatalf("exp duration mean = %v, want ≈10m", mean)
	}
}

// Fluid resizing degrades gracefully when tasks hog the whole cluster:
// the manager counts the shortfall as drops instead of failing.
func TestStreamManagerFluidDeficit(t *testing.T) {
	c := newCluster(t, 1)
	mix := workload.PaperMix()
	tr := flatTrace(t, 0.9, 2)
	lm, err := NewStreamManager(c, mix, tr, NewRoundRobin(c), DefaultTaskDurations(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the lone server with long tasks by hand.
	for c.Server(0).FreeCores() > 0 {
		if err := c.Server(0).Place(workload.Clustering); err != nil {
			t.Fatal(err)
		}
	}
	if err := lm.Reconcile(0); err != nil {
		t.Fatalf("full cluster should not error: %v", err)
	}
	if lm.Dropped() == 0 {
		t.Fatal("fluid deficit should be counted as drops")
	}
}

// boxedHeap is completionHeap's reference: the same completions in a
// container/heap queue, boxed into an any on every Push and Pop.
type boxedHeap []completion

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *boxedHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// The typed heap must pop (at, server, entry) in exactly container/heap's
// order, ties included: tie order can decide which server a fallback
// SelectRemoval takes a migrated task from, and the pinned benchmark
// fingerprints do not catch a changed tie rule. Each seed draws at from a
// different number of distinct values (1 to 4,096), so some runs are
// almost all ties; server carries the push sequence number, so every
// element is distinct and any reordering among equal keys shows. Both
// arrays must also be identical after every operation.
func TestCompletionQueueMatchesContainerHeap(t *testing.T) {
	for seed := uint64(0); seed < 26; seed++ {
		rng := stats.NewRNG(seed)
		distinct := 1 << (seed % 13)
		var got completionHeap
		var want boxedHeap
		pushes, pops := 0, 0
		check := func(op string) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d after %s: len %d, container/heap %d", seed, op, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d after %s: slot %d = %+v, container/heap %+v", seed, op, i, got[i], want[i])
				}
			}
		}
		for op := 0; op < 6000; op++ {
			// Grow for the first half, then drain: the queue passes
			// through every size up to its peak and back to empty.
			pushBias := 0.7
			if op >= 3000 {
				pushBias = 0.3
			}
			if len(got) == 0 || rng.Float64() < pushBias {
				c := completion{
					at:     time.Duration(rng.Intn(distinct)) * time.Second,
					server: int32(pushes),
					entry:  int32(rng.Intn(5)),
				}
				pushes++
				got.push(c)
				heap.Push(&want, c)
				check("push")
				continue
			}
			pops++
			g, w := got.pop(), heap.Pop(&want).(completion)
			if g != w {
				t.Fatalf("seed %d pop %d = %+v, container/heap %+v", seed, pops, g, w)
			}
			check("pop")
		}
		for len(want) > 0 {
			pops++
			g, w := got.pop(), heap.Pop(&want).(completion)
			if g != w {
				t.Fatalf("seed %d drain pop %d = %+v, container/heap %+v", seed, pops, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d completions left after the oracle drained", seed, len(got))
		}
	}
}

// One steady-state scheduling period, Reconcile plus the physics Step
// it feeds, allocates nothing: arrivals and departures move through the
// pointer-free completion heap and the entry-indexed ledgers.
func TestStreamManagerSteadyStateAllocs(t *testing.T) {
	c := newCluster(t, 20)
	lm, err := NewStreamManager(c, workload.PaperMix(), flatTrace(t, 0.6, 4),
		NewRoundRobin(c), DefaultTaskDurations(), 13)
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	period := func() {
		if err := lm.Reconcile(now); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
		now += time.Minute
	}
	for now < 2*time.Hour {
		period()
	}
	if got := testing.AllocsPerRun(100, period); got != 0 {
		t.Fatalf("Reconcile+Step allocates %v times per period, want 0", got)
	}
}
