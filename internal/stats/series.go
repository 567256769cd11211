package stats

import (
	"fmt"
	"time"
)

// Series is a uniformly sampled time series: Values[i] is the sample at
// Start + i×Step. It is the common currency between the simulator
// (which produces per-minute samples) and the reporting layer.
type Series struct {
	Start  time.Duration `json:"start_ns"` // simulation time of Values[0]
	Step   time.Duration `json:"step_ns"`  // sampling interval, > 0
	Values []float64     `json:"values"`
}

// NewSeries returns an empty series with the given step.
func NewSeries(step time.Duration) *Series {
	if step <= 0 {
		panic("stats: series step must be positive")
	}
	return &Series{Step: step}
}

// NewSeriesCap returns an empty series with capacity preallocated for
// n samples — the simulator knows its sample count up front, and
// growing per-minute series by repeated append doubling is measurable
// across a sweep.
func NewSeriesCap(step time.Duration, n int) *Series {
	s := NewSeries(step)
	if n > 0 {
		s.Values = make([]float64, 0, n)
	}
	return s
}

// Append adds a sample at the next slot.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the simulation time of sample i.
func (s *Series) TimeAt(i int) time.Duration {
	return s.Start + time.Duration(i)*s.Step
}

// Peak returns the maximum sample and its time. It returns an error on
// an empty series.
func (s *Series) Peak() (float64, time.Duration, error) {
	i := MaxIndex(s.Values)
	if i < 0 {
		return 0, 0, ErrEmpty
	}
	return s.Values[i], s.TimeAt(i), nil
}

// Mean returns the mean of the samples.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// Downsample returns every k-th sample (k ≥ 1), preserving the start
// time. Useful to thin per-minute data for plotting.
func (s *Series) Downsample(k int) *Series {
	if k < 1 {
		panic("stats: downsample factor must be >= 1")
	}
	out := &Series{Start: s.Start, Step: s.Step * time.Duration(k)}
	for i := 0; i < len(s.Values); i += k {
		out.Values = append(out.Values, s.Values[i])
	}
	return out
}

// String summarizes the series for debugging.
func (s *Series) String() string {
	if len(s.Values) == 0 {
		return fmt.Sprintf("Series(step=%v, empty)", s.Step)
	}
	peak, at, _ := s.Peak()
	return fmt.Sprintf("Series(step=%v, n=%d, mean=%.2f, peak=%.2f@%v)",
		s.Step, len(s.Values), s.Mean(), peak, at)
}
