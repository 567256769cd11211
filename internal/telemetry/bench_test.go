package telemetry

import (
	"testing"
)

// The contention microbenchmarks bound the cost instrumented hot paths
// pay per update with every core hammering the same instruments —
// the worst case RunMany produces with a shared registry.

func BenchmarkCounterContended(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("events")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramContended(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("melt", LinearBounds(0, 1, 10)...)
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0
		for pb.Next() {
			v += 0.1
			if v > 1 {
				v = 0
			}
			h.Observe(v)
		}
	})
}

func BenchmarkNilCounter(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRecorderEmit(b *testing.B) {
	rec := NewRecorder()
	ev := SpanEvent{Name: "physics"}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec.Emit(ev)
		}
	})
}
