// Package sim implements a deterministic discrete-event simulation
// engine, the substrate standing in for DCsim in the VMT reproduction.
//
// The engine maintains a priority queue of timestamped events. Events
// scheduled for the same instant fire in a stable order: first by
// priority (lower fires first), then by scheduling sequence number.
// Determinism is essential so that the paper's experiments reproduce
// bit-for-bit across runs.
//
// Typical use:
//
//	eng := sim.NewEngine()
//	eng.Every(0, time.Minute, sim.PriorityModel, func(now time.Duration) {
//	        ... advance physics ...
//	})
//	eng.RunUntil(48 * time.Hour)
package sim

import (
	"container/heap"
	"fmt"
	"time"

	"vmt/internal/telemetry"
)

// Priority orders events that share a timestamp. Lower values fire
// first. The bands below encode the per-tick pipeline of the cluster
// simulation: physics advances first, then the scheduler reacts, then
// metrics observe the settled state.
type Priority int

const (
	// PriorityModel is for physical-model updates (thermal, wax).
	PriorityModel Priority = 100
	// PriorityFault is for fault injection: crashes and repairs land
	// after the physics settles but before the scheduler reacts, so a
	// crash at tick t is visible to the same tick's rebalancing.
	PriorityFault Priority = 150
	// PriorityScheduler is for load placement and rebalancing.
	PriorityScheduler Priority = 200
	// PriorityMetrics is for observers sampling the settled state.
	PriorityMetrics Priority = 300
)

// Handler is an event callback. now is the simulation time at which the
// event fires.
type Handler func(now time.Duration)

type event struct {
	at       time.Duration
	priority Priority
	seq      uint64 // tiebreaker: FIFO among equal (at, priority)
	fn       Handler
	interval time.Duration // > 0 for periodic events
	id       uint64
	canceled bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all scheduling must happen from the goroutine
// running RunUntil (typically from inside handlers).
type Engine struct {
	now     time.Duration
	queue   eventQueue
	nextSeq uint64
	nextID  uint64
	// live indexes queued events by ID so Cancel can mark the event
	// itself; dispatch then checks a plain struct field instead of
	// paying a map lookup per event on the steady-state path.
	live  map[uint64]*event
	fired uint64
	// halted is set by Halt and checked before every dispatch: a
	// halted engine dispatches nothing further.
	halted bool
	// pool recycles one-shot event structs so bursty task-arrival
	// workloads do not allocate one event per scheduled callback.
	pool []*event
	// metrics is nil unless Instrument was called; dispatch pays one
	// nil check per event when uninstrumented.
	metrics *engineMetrics
}

// engineMetrics holds the engine's resolved instruments. Wall time is
// attributed per priority band so a profile shows where a run spends
// its time: physics, scheduling, or observation.
type engineMetrics struct {
	dispatched *telemetry.Counter
	queueHWM   *telemetry.Gauge
	bandNanos  map[Priority]*telemetry.Counter
	otherNanos *telemetry.Counter
}

// Instrument registers the engine's instruments in r and starts
// updating them: sim_events_dispatched, sim_queue_depth_hwm (peak
// queue length), and sim_wall_ns_{model,scheduler,metrics,other}
// (wall time per priority band). Instrumentation only observes —
// event order and simulation results are unchanged.
func (e *Engine) Instrument(r *telemetry.Registry) {
	if r == nil {
		return
	}
	e.metrics = &engineMetrics{
		dispatched: r.Counter("sim_events_dispatched"),
		queueHWM:   r.Gauge("sim_queue_depth_hwm"),
		bandNanos: map[Priority]*telemetry.Counter{
			PriorityModel:     r.Counter("sim_wall_ns_model"),
			PriorityScheduler: r.Counter("sim_wall_ns_scheduler"),
			PriorityMetrics:   r.Counter("sim_wall_ns_metrics"),
		},
		otherNanos: r.Counter("sim_wall_ns_other"),
	}
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	return &Engine{live: make(map[uint64]*event)}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events dispatched so far (for tests and
// progress reporting).
func (e *Engine) Fired() uint64 { return e.fired }

// Halt stops the engine for good: RunUntil and StepEvent return after
// the event being dispatched (if any), leaving the clock at its
// timestamp, and dispatch no later event. A handler that hits a fatal
// error halts the engine so that the rest of the run costs nothing.
func (e *Engine) Halt() { e.halted = true }

// EventID identifies a scheduled event so it can be canceled.
type EventID uint64

// At schedules fn to run once at absolute simulation time at. Scheduling
// in the past (at < Now()) is an error.
func (e *Engine) At(at time.Duration, p Priority, fn Handler) (EventID, error) {
	if at < e.now {
		return 0, fmt.Errorf("sim: cannot schedule at %v, now is %v", at, e.now)
	}
	return e.push(at, p, fn, 0), nil
}

// After schedules fn to run once delay from now.
func (e *Engine) After(delay time.Duration, p Priority, fn Handler) (EventID, error) {
	if delay < 0 {
		return 0, fmt.Errorf("sim: negative delay %v", delay)
	}
	return e.push(e.now+delay, p, fn, 0), nil
}

// Every schedules fn to run at start and then every interval thereafter
// until the engine stops or the event is canceled.
func (e *Engine) Every(start, interval time.Duration, p Priority, fn Handler) (EventID, error) {
	if start < e.now {
		return 0, fmt.Errorf("sim: cannot schedule at %v, now is %v", start, e.now)
	}
	if interval <= 0 {
		return 0, fmt.Errorf("sim: non-positive interval %v", interval)
	}
	return e.push(start, p, fn, interval), nil
}

func (e *Engine) push(at time.Duration, p Priority, fn Handler, interval time.Duration) EventID {
	e.nextSeq++
	e.nextID++
	var ev *event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool = e.pool[:n-1]
		*ev = event{}
	} else {
		ev = &event{}
	}
	ev.at, ev.priority, ev.seq = at, p, e.nextSeq
	ev.fn, ev.interval, ev.id = fn, interval, e.nextID
	heap.Push(&e.queue, ev)
	e.live[e.nextID] = ev
	if e.metrics != nil {
		e.metrics.queueHWM.SetMax(float64(e.queue.Len()))
	}
	return EventID(e.nextID)
}

// retire removes a finished (fired one-shot or canceled) event from the
// live index and recycles its struct. The pool is capped so a burst of
// one-shots does not pin memory forever.
func (e *Engine) retire(ev *event) {
	delete(e.live, ev.id)
	if len(e.pool) < 64 {
		ev.fn = nil // drop the handler reference while pooled
		e.pool = append(e.pool, ev)
	}
}

// Cancel prevents a scheduled (or periodic) event from firing again.
// Canceling an already-fired one-shot event is a harmless no-op.
func (e *Engine) Cancel(id EventID) {
	if ev, ok := e.live[uint64(id)]; ok {
		ev.canceled = true
	}
}

// NextAt returns the timestamp of the next live event in the queue.
// ok is false when the queue holds no dispatchable event (empty, or
// only canceled husks awaiting collection).
func (e *Engine) NextAt() (at time.Duration, ok bool) {
	// Canceled events are collected lazily at dispatch; peek past them
	// here so the reported timestamp is one that will actually fire.
	for e.queue.Len() > 0 {
		next := e.queue[0]
		if !next.canceled {
			return next.at, true
		}
		heap.Pop(&e.queue)
		e.retire(next)
	}
	return 0, false
}

// StepEvent dispatches the single next event if it fires at or before
// limit, advancing the clock to its timestamp. It reports whether an
// event fired; when none did (queue empty, the next event lies
// strictly beyond limit, or the engine is halted) the clock is left
// untouched so the caller decides where it settles. StepEvent is the
// re-entrant core RunUntil loops over: dispatching events one at a
// time through any sequence of limits produces exactly the dispatch
// order of one monolithic run, because order depends only on the
// queue, never on the chunking.
func (e *Engine) StepEvent(limit time.Duration) (bool, error) {
	if limit < e.now {
		return false, fmt.Errorf("sim: limit %v before now %v", limit, e.now)
	}
	if e.halted {
		return false, nil
	}
	next, ok := e.peek()
	if !ok || next.at > limit {
		return false, nil
	}
	heap.Pop(&e.queue)
	e.dispatch(next)
	return true, nil
}

// peek returns the next live event, lazily collecting canceled ones.
func (e *Engine) peek() (*event, bool) {
	for e.queue.Len() > 0 {
		next := e.queue[0]
		if !next.canceled {
			return next, true
		}
		heap.Pop(&e.queue)
		e.retire(next)
	}
	return nil, false
}

// dispatch fires ev (already popped), advances the clock to its
// timestamp, and requeues it when periodic.
func (e *Engine) dispatch(ev *event) {
	e.now = ev.at
	e.fired++
	if m := e.metrics; m != nil {
		m.dispatched.Inc()
		start := time.Now() //vmtlint:allow detrand observational: per-band wall-time metric only
		ev.fn(e.now)
		band, ok := m.bandNanos[ev.priority]
		if !ok {
			band = m.otherNanos
		}
		band.Add(uint64(time.Since(start))) //vmtlint:allow detrand observational: per-band wall-time metric only
	} else {
		ev.fn(e.now)
	}
	if ev.interval > 0 && !ev.canceled {
		ev.at += ev.interval
		e.nextSeq++
		ev.seq = e.nextSeq
		heap.Push(&e.queue, ev)
	} else {
		// Fired one-shot, or a periodic event canceled mid-dispatch.
		e.retire(ev)
	}
}

// RunUntil dispatches events in order until the queue empties or the
// next event lies strictly beyond end. The clock finishes at end,
// unless the engine halts: then RunUntil returns right after the
// halting dispatch, with the clock at that event's timestamp.
// Calling RunUntil repeatedly with an increasing end is equivalent to
// one call with the final end: the engine is re-entrant, which is what
// lets a Session advance the same run tick by tick.
func (e *Engine) RunUntil(end time.Duration) error {
	if end < e.now {
		return fmt.Errorf("sim: end %v before now %v", end, e.now)
	}
	for {
		if e.halted {
			return nil
		}
		next, ok := e.peek()
		if !ok || next.at > end {
			break
		}
		heap.Pop(&e.queue)
		e.dispatch(next)
	}
	e.now = end
	return nil
}

// Pending returns the number of events currently queued (periodic
// events count once).
func (e *Engine) Pending() int { return e.queue.Len() }
