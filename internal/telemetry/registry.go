// Package telemetry is the simulator's observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms), a run tracer
// producing structured span events, and exporters for the Prometheus
// text format, JSON, JSONL, and Chrome trace_event formats.
//
// The package is stdlib-only and built around one invariant: telemetry
// observes, it never perturbs. Instruments are updated with atomic
// operations, instrument handles are nil-safe (updating a nil counter
// is a no-op), and nothing in this package feeds back into simulation
// state — an instrumented run produces bit-identical results to an
// uninstrumented one.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use; a nil Counter ignores updates, so call sites can hold
// optional instruments without branching.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (zero for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64. A nil Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by v (atomically, CAS loop).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (zero for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations ≤ bounds[i]; one extra bucket catches the overflow.
// A nil Histogram ignores observations.
type Histogram struct {
	bounds []float64 // sorted upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge // atomic float accumulator
}

// newHistogram builds a histogram over the given sorted upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveAll records every value of vs, leaving the histogram as a
// loop of Observe over vs would: the same bucket counts and count, and
// the same sum bit for bit, because the values are added to the sum
// left to right onto the value it held. It buckets the values locally
// and publishes each non-empty bucket and the count with one atomic
// add, and the sum with one compare-and-swap, redoing the whole sum if
// another writer moved it in between — the cost of a per-tick fleet
// histogram is then one update per bucket, not three per server.
func (h *Histogram) ObserveAll(vs []float64) {
	if h == nil || len(vs) == 0 {
		return
	}
	var local [32]uint64
	var counts []uint64
	if n := len(h.counts); n <= len(local) {
		counts = local[:n]
	} else {
		counts = make([]uint64, n)
	}
	for _, v := range vs {
		counts[sort.SearchFloat64s(h.bounds, v)]++
	}
	for i, n := range counts {
		if n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(uint64(len(vs)))
	for {
		old := h.sum.bits.Load()
		sum := math.Float64frombits(old)
		for _, v := range vs {
			sum += v
		}
		if h.sum.bits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// Count returns the number of observations (zero for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observations (zero for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Registry is a named collection of instruments. Instruments are
// created on first use and shared thereafter; all methods are safe for
// concurrent use. A nil *Registry is valid and hands out nil
// instruments, so an uninstrumented component pays only nil checks.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds if needed. Later calls reuse the existing
// histogram and ignore bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// LinearBounds returns n+1 evenly spaced bucket bounds from lo to hi,
// a convenience for histograms over a known range (e.g. melt fraction
// in [0,1]).
func LinearBounds(lo, hi float64, n int) []float64 {
	if n < 1 || hi <= lo {
		return []float64{lo}
	}
	bounds := make([]float64, n+1)
	for i := range bounds {
		bounds[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return bounds
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketPoint is one histogram bucket: observations ≤ UpperBound.
// The overflow bucket reports +Inf, serialized as null in JSON (JSON
// has no infinity), so Le uses a pointer.
type BucketPoint struct {
	Le    *float64 `json:"le"` // nil ⇒ +Inf
	Count uint64   `json:"count"`
}

// HistogramPoint is one histogram in a snapshot.
type HistogramPoint struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketPoint `json:"buckets"`
}

// Snapshot is a consistent, name-sorted view of every instrument —
// deterministic output for rendering and tests. (Individual values are
// read atomically; the set is not a cross-instrument transaction.)
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Snapshot captures the current values of all instruments, sorted by
// name. Safe to call while updates continue. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters { //vmtlint:allow maporder sections are sorted by name below
		snap.Counters = append(snap.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges { //vmtlint:allow maporder sections are sorted by name below
		snap.Gauges = append(snap.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms { //vmtlint:allow maporder sections are sorted by name below
		hp := HistogramPoint{Name: name, Count: h.Count(), Sum: h.Sum()}
		for i := range h.counts {
			bp := BucketPoint{Count: h.counts[i].Load()}
			if i < len(h.bounds) {
				le := h.bounds[i]
				bp.Le = &le
			}
			hp.Buckets = append(hp.Buckets, bp)
		}
		snap.Histograms = append(snap.Histograms, hp)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// WriteJSON renders the snapshot as one JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
