package sim

import (
	"testing"
	"testing/quick"
	"time"

	"vmt/internal/telemetry"
)

func TestOneShotOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	must := func(_ EventID, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.At(3*time.Second, PriorityModel, func(time.Duration) { got = append(got, 3) }))
	must(e.At(1*time.Second, PriorityModel, func(time.Duration) { got = append(got, 1) }))
	must(e.At(2*time.Second, PriorityModel, func(time.Duration) { got = append(got, 2) }))
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", e.Now())
	}
}

func TestSameInstantPriorityThenFIFO(t *testing.T) {
	e := NewEngine()
	var got []string
	add := func(p Priority, tag string) {
		if _, err := e.At(time.Second, p, func(time.Duration) { got = append(got, tag) }); err != nil {
			t.Fatal(err)
		}
	}
	add(PriorityMetrics, "metrics")
	add(PriorityScheduler, "sched1")
	add(PriorityModel, "model")
	add(PriorityScheduler, "sched2")
	if err := e.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"model", "sched1", "sched2", "metrics"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestPeriodicEvent(t *testing.T) {
	e := NewEngine()
	var fires []time.Duration
	if _, err := e.Every(0, time.Minute, PriorityModel, func(now time.Duration) {
		fires = append(fires, now)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 6 { // 0,1,2,3,4,5 minutes inclusive
		t.Fatalf("fired %d times: %v", len(fires), fires)
	}
	for i, at := range fires {
		if at != time.Duration(i)*time.Minute {
			t.Fatalf("fire %d at %v", i, at)
		}
	}
}

func TestCancelPeriodic(t *testing.T) {
	e := NewEngine()
	count := 0
	id, err := e.Every(0, time.Minute, PriorityModel, func(time.Duration) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(2*time.Minute+time.Second, PriorityModel, func(time.Duration) {
		e.Cancel(id)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 3 { // fires at 0, 1m, 2m
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestCancelFromOwnHandler(t *testing.T) {
	e := NewEngine()
	count := 0
	var id EventID
	id, err := e.Every(0, time.Second, PriorityModel, func(time.Duration) {
		count++
		if count == 2 {
			e.Cancel(id)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

// A handler that halts the engine is the last dispatch: RunUntil
// returns with the clock at the halting event, and neither RunUntil nor
// StepEvent dispatches anything afterwards.
func TestHaltStopsDispatch(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	if _, err := e.Every(0, time.Minute, PriorityModel, func(now time.Duration) {
		got = append(got, now)
		if now == 3*time.Minute {
			e.Halt()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Every(0, time.Minute, PriorityMetrics, func(now time.Duration) {
		got = append(got, now)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
	// Both events fire at 0, 1m and 2m; at 3m only the halting one.
	if len(got) != 7 || got[6] != 3*time.Minute || e.Fired() != 7 {
		t.Fatalf("dispatched %v (fired %d), want 7 events ending at the halt", got, e.Fired())
	}
	if e.Now() != 3*time.Minute {
		t.Fatalf("Now = %v, want the halting tick 3m", e.Now())
	}
	if err := e.RunUntil(2 * time.Hour); err != nil || e.Fired() != 7 {
		t.Fatalf("RunUntil after halt: err %v, fired %d", err, e.Fired())
	}
	if fired, err := e.StepEvent(2 * time.Hour); fired || err != nil || e.Fired() != 7 {
		t.Fatalf("StepEvent after halt: fired %v, err %v", fired, err)
	}
	if e.Now() != 3*time.Minute {
		t.Fatalf("Now = %v after halt, want 3m", e.Now())
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.At(time.Second, PriorityModel, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(time.Second, PriorityModel, func(time.Duration) {}); err == nil {
		t.Fatal("scheduling in past should fail")
	}
	if _, err := e.After(-time.Second, PriorityModel, func(time.Duration) {}); err == nil {
		t.Fatal("negative delay should fail")
	}
	if _, err := e.Every(0, 0, PriorityModel, func(time.Duration) {}); err == nil {
		t.Fatal("zero interval should fail")
	}
	if err := e.RunUntil(time.Second); err == nil {
		t.Fatal("running backwards should fail")
	}
}

func TestHandlerSchedulesMore(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	if _, err := e.At(time.Second, PriorityModel, func(now time.Duration) {
		got = append(got, now)
		if _, err := e.After(time.Second, PriorityModel, func(n2 time.Duration) {
			got = append(got, n2)
		}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != 2*time.Second {
		t.Fatalf("got %v", got)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	count := 0
	if _, err := e.Every(0, time.Minute, PriorityModel, func(time.Duration) { count++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	// Resume: next fire at 2m still pending.
	if err := e.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count after resume = %d, want 3", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

// Property: N one-shot events with arbitrary non-negative offsets all
// fire exactly once, in non-decreasing time order.
func TestEventDeliveryProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var times []time.Duration
		for _, r := range raw {
			at := time.Duration(r) * time.Millisecond
			if _, err := e.At(at, PriorityModel, func(now time.Duration) {
				times = append(times, now)
			}); err != nil {
				return false
			}
		}
		if err := e.RunUntil(time.Duration(1<<16) * time.Millisecond); err != nil {
			return false
		}
		if len(times) != len(raw) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	if _, err := e.Every(0, time.Second, PriorityModel, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 11 {
		t.Fatalf("Fired = %d, want 11", e.Fired())
	}
}

func TestInstrumentedEngineCountsAndOrder(t *testing.T) {
	run := func(reg *telemetry.Registry) []int {
		e := NewEngine()
		e.Instrument(reg)
		var order []int
		if _, err := e.Every(0, time.Second, PriorityScheduler, func(time.Duration) {
			order = append(order, 2)
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Every(0, time.Second, PriorityModel, func(time.Duration) {
			order = append(order, 1)
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.At(2*time.Second, Priority(999), func(time.Duration) {
			order = append(order, 3)
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.RunUntil(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		return order
	}

	reg := telemetry.NewRegistry()
	instrumented := run(reg)
	plain := run(nil)
	if len(instrumented) != len(plain) {
		t.Fatalf("dispatch count changed: %d vs %d", len(instrumented), len(plain))
	}
	for i := range plain {
		if instrumented[i] != plain[i] {
			t.Fatalf("instrumentation changed event order at %d: %v vs %v",
				i, instrumented, plain)
		}
	}

	if got := reg.Counter("sim_events_dispatched").Value(); got != 9 {
		t.Fatalf("sim_events_dispatched = %d, want 9", got)
	}
	if hwm := reg.Gauge("sim_queue_depth_hwm").Value(); hwm < 3 {
		t.Fatalf("sim_queue_depth_hwm = %v, want ≥ 3", hwm)
	}
	// The out-of-band priority lands in the "other" bucket; the named
	// bands accumulated (possibly tiny but counted) wall time.
	for _, name := range []string{"sim_wall_ns_model", "sim_wall_ns_scheduler"} {
		if _, ok := find(reg, name); !ok {
			t.Fatalf("missing band counter %s", name)
		}
	}
}

// buildMixedEngine loads an engine with the cluster pipeline's shape:
// periodic bands at mixed priorities, one-shots, a mid-run cancel, and
// a handler that schedules more work. Each dispatch appends (tag, now)
// so two engines' traces can be compared exactly.
func buildMixedEngine(log *[]string) *Engine {
	e := NewEngine()
	rec := func(tag string) Handler {
		return func(now time.Duration) { *log = append(*log, tag+"@"+now.String()) }
	}
	e.Every(0, time.Minute, PriorityScheduler, rec("sched"))
	e.Every(time.Minute, time.Minute, PriorityModel, rec("model"))
	e.Every(time.Minute, time.Minute, PriorityMetrics, rec("metrics"))
	e.At(90*time.Second, PriorityFault, rec("fault"))
	cancelID, _ := e.Every(0, 2*time.Minute, PriorityFault, rec("periodic-fault"))
	e.At(5*time.Minute+time.Second, PriorityModel, func(now time.Duration) {
		e.Cancel(cancelID)
		*log = append(*log, "cancel@"+now.String())
		e.After(30*time.Second, PriorityScheduler, rec("late"))
	})
	return e
}

// Property: advancing the same event load through arbitrary ragged
// RunUntil chunks dispatches the identical sequence as one monolithic
// RunUntil, with the same final clock and fired count.
func TestChunkedRunUntilMatchesMonolithic(t *testing.T) {
	const end = 10 * time.Minute
	var mono []string
	me := buildMixedEngine(&mono)
	if err := me.RunUntil(end); err != nil {
		t.Fatal(err)
	}

	f := func(raw []uint8) bool {
		var chunked []string
		ce := buildMixedEngine(&chunked)
		at := time.Duration(0)
		for _, r := range raw {
			at += time.Duration(r) * time.Second
			if at > end {
				at = end
			}
			if err := ce.RunUntil(at); err != nil {
				return false
			}
		}
		if err := ce.RunUntil(end); err != nil {
			return false
		}
		if ce.Now() != me.Now() || ce.Fired() != me.Fired() {
			return false
		}
		if len(chunked) != len(mono) {
			return false
		}
		for i := range mono {
			if chunked[i] != mono[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Stepping one event at a time via StepEvent replays the monolithic
// dispatch sequence exactly, and NextAt agrees with what fires next.
func TestStepEventMatchesMonolithic(t *testing.T) {
	const end = 10 * time.Minute
	var mono []string
	me := buildMixedEngine(&mono)
	if err := me.RunUntil(end); err != nil {
		t.Fatal(err)
	}

	var stepped []string
	se := buildMixedEngine(&stepped)
	for {
		at, ok := se.NextAt()
		if !ok || at > end {
			break
		}
		fired, err := se.StepEvent(end)
		if err != nil {
			t.Fatal(err)
		}
		if !fired {
			t.Fatalf("NextAt said %v fires but StepEvent dispatched nothing", at)
		}
		if se.Now() != at {
			t.Fatalf("StepEvent advanced clock to %v, NextAt promised %v", se.Now(), at)
		}
	}
	// One more StepEvent at the boundary must be a no-op.
	if fired, err := se.StepEvent(end); err != nil || fired {
		t.Fatalf("StepEvent past drain: fired=%v err=%v", fired, err)
	}
	if se.Fired() != me.Fired() {
		t.Fatalf("Fired = %d, monolithic fired %d", se.Fired(), me.Fired())
	}
	if len(stepped) != len(mono) {
		t.Fatalf("dispatched %d events, monolithic dispatched %d", len(stepped), len(mono))
	}
	for i := range mono {
		if stepped[i] != mono[i] {
			t.Fatalf("dispatch %d = %q, monolithic %q", i, stepped[i], mono[i])
		}
	}
}

func TestStepEventRejectsPastLimit(t *testing.T) {
	e := NewEngine()
	if _, err := e.At(time.Second, PriorityModel, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepEvent(time.Second); err == nil {
		t.Fatal("StepEvent with limit before now should fail")
	}
}

func TestNextAtSkipsCanceled(t *testing.T) {
	e := NewEngine()
	id, err := e.At(time.Second, PriorityModel, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(2*time.Second, PriorityModel, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	e.Cancel(id)
	at, ok := e.NextAt()
	if !ok || at != 2*time.Second {
		t.Fatalf("NextAt = %v, %v; want 2s, true", at, ok)
	}
	e2 := NewEngine()
	if _, ok := e2.NextAt(); ok {
		t.Fatal("NextAt on empty engine should report no event")
	}
}

// find reports whether the registry snapshot has the named counter.
func find(reg *telemetry.Registry, name string) (uint64, bool) {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}
