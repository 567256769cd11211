package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("events") != c {
		t.Fatal("same name should return the same counter")
	}

	g := r.Gauge("depth")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	g.Add(-2)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Add = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("melt", 0.25, 0.5, 0.75)
	for _, v := range []float64{0.1, 0.25, 0.3, 0.9, 1.5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.1+0.25+0.3+0.9+1.5; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	counts := []uint64{}
	for _, b := range snap.Histograms[0].Buckets {
		counts = append(counts, b.Count)
	}
	// ≤0.25: {0.1, 0.25}; ≤0.5: {0.3}; ≤0.75: {}; overflow: {0.9, 1.5}
	want := []uint64{2, 1, 0, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", counts, want)
		}
	}
	last := snap.Histograms[0].Buckets[len(counts)-1]
	if last.Le != nil {
		t.Fatal("overflow bucket should have nil (infinite) bound")
	}
	// Re-asking with different bounds returns the existing histogram.
	if r.Histogram("melt", 0.5) != h {
		t.Fatal("same name should return the same histogram")
	}
}

func TestLinearBounds(t *testing.T) {
	b := LinearBounds(0, 1, 4)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	if got := LinearBounds(2, 1, 4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("degenerate bounds = %v", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", 1)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments should stay zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
		r.Gauge(name).Set(1)
		r.Histogram(name, 1).Observe(0)
	}
	snap := r.Snapshot()
	wantOrder := []string{"alpha", "mid", "zeta"}
	for i, want := range wantOrder {
		if snap.Counters[i].Name != want || snap.Gauges[i].Name != want ||
			snap.Histograms[i].Name != want {
			t.Fatalf("snapshot not name-sorted: %+v", snap)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", 0.5).Observe(float64(i%2) * 0.9)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Fatalf("gauge sum = %v, want %d", got, workers*per)
	}
	if got := r.Histogram("h").Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events").Add(42)
	r.Gauge("queue_hwm").Set(7)
	r.Histogram("melt", 0.5, 1).Observe(0.4)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sim_events 42\n",
		"queue_hwm 7\n",
		"melt_count 1\n",
		`melt_bucket{le="0.5"} 1`,
		`melt_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, text.String())
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON output does not round-trip: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 42 {
		t.Fatalf("decoded snapshot = %+v", snap)
	}
}
