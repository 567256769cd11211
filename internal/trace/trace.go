// Package trace generates the diurnal datacenter load trace driving the
// VMT scale-out study. The paper uses a two-day trace of Google
// datacenter load normalized per Kontorinis et al.; this package
// synthesizes the same published shape: load peaks near hours 20 and 46
// at up to 95% utilization and troughs near hours 5 and 29 — two
// atypically heavy back-to-back days chosen to stress the cooling
// system (Section IV-E, Figure 8).
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"vmt/internal/jsonio"
	"vmt/internal/stats"
)

// Spec parameterizes a synthetic diurnal trace.
type Spec struct {
	// Days is the trace length in days.
	Days int `json:"days"`
	// PeakUtil is the peak utilization (0..1] reached on each day;
	// entry i applies to day i (the last entry repeats if Days exceeds
	// its length).
	PeakUtil []float64 `json:"peak_util"`
	// TroughUtil is the overnight minimum utilization.
	TroughUtil float64 `json:"trough_util"`
	// PeakHours places each day's peak within its 24-hour day; entry i
	// applies to day i (the last entry repeats). The paper's trace
	// peaks near hour 20 on day one and hour 46 (= hour 22 of day two)
	// on day two. Every peak hour must exceed TroughHour.
	PeakHours []float64 `json:"peak_hours"`
	// TroughHour places the overnight minimum (e.g. hour 5): the
	// asymmetric long climb and short descent of user-facing load.
	TroughHour float64 `json:"trough_hour"`
	// NoiseAmp adds smoothed, seeded white noise of the given
	// amplitude (fraction of utilization) to mimic query jitter.
	// Zero disables noise.
	NoiseAmp float64 `json:"noise_amp"`
	// PeakSharpness shapes how pointed the daily peak is: 1 (and 0,
	// the zero value) gives a plain half-cosine; larger values spend
	// less time near the peak, matching the spiky profile of real
	// user-facing load. Must be ≥ 1 (after zero-defaulting).
	PeakSharpness float64 `json:"peak_sharpness"`
	// Seed drives the noise generator; same seed, same trace.
	Seed uint64 `json:"seed"`
}

// PaperTwoDay returns the Figure 8 scenario: two consecutive worst-case
// days peaking at 90% and 95% server utilization with 25% overnight
// troughs.
func PaperTwoDay() Spec {
	return Spec{
		Days:          2,
		PeakUtil:      []float64{0.90, 0.95},
		TroughUtil:    0.25,
		PeakHours:     []float64{20, 22}, // peaks at h20 and h46
		TroughHour:    5,
		NoiseAmp:      0.01,
		PeakSharpness: 2.0,
		Seed:          1802, // ISCA 2018 submission, arbitrary but fixed
	}
}

// Validate reports whether the spec is self-consistent.
func (s Spec) Validate() error {
	switch {
	case s.Days <= 0:
		return fmt.Errorf("trace: days must be positive, got %d", s.Days)
	case len(s.PeakUtil) == 0:
		return fmt.Errorf("trace: need at least one peak utilization")
	case s.TroughUtil < 0 || s.TroughUtil > 1:
		return fmt.Errorf("trace: trough utilization %v out of [0,1]", s.TroughUtil)
	case len(s.PeakHours) == 0:
		return fmt.Errorf("trace: need at least one peak hour")
	case s.TroughHour < 0 || s.TroughHour >= 24:
		return fmt.Errorf("trace: trough hour must lie in [0,24)")
	case s.NoiseAmp < 0:
		return fmt.Errorf("trace: negative noise amplitude")
	//vmtlint:allow floateq zero-value "unset" sentinel, exact by construction
	case s.PeakSharpness != 0 && s.PeakSharpness < 1:
		return fmt.Errorf("trace: peak sharpness must be >= 1, got %v", s.PeakSharpness)
	}
	for i, ph := range s.PeakHours {
		if ph <= s.TroughHour || ph >= 24 {
			return fmt.Errorf("trace: day %d peak hour %v must lie in (trough hour, 24)", i, ph)
		}
	}
	for i, p := range s.PeakUtil {
		if p <= s.TroughUtil || p > 1 {
			return fmt.Errorf("trace: day %d peak %v must lie in (trough, 1]", i, p)
		}
	}
	return nil
}

// Trace is a sampled utilization series in [0,1].
type Trace struct {
	step    time.Duration
	samples []float64
}

// Generate samples the spec's load curve every step.
func Generate(spec Spec, step time.Duration) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if step <= 0 {
		return nil, fmt.Errorf("trace: step must be positive, got %v", step)
	}
	total := time.Duration(spec.Days) * 24 * time.Hour
	n := int(total/step) + 1
	tr := &Trace{step: step, samples: make([]float64, n)}
	for i := range tr.samples {
		tr.samples[i] = spec.utilAt(time.Duration(i) * step)
	}
	if spec.NoiseAmp > 0 {
		applyNoise(tr.samples, spec.NoiseAmp, spec.Seed)
	}
	return tr, nil
}

// utilAt evaluates the noiseless diurnal curve at simulation time d.
// Between consecutive extremes (trough→peak, peak→trough) the curve is
// a half-cosine ease, which matches the smooth rise and fall of the
// published trace while hitting the extremes exactly.
func (s Spec) utilAt(d time.Duration) float64 {
	hours := d.Hours()
	day := int(hours / 24)
	h := math.Mod(hours, 24)

	// Work in a frame where the trough is hour zero; climb is the
	// trough→peak span of the day that owns the current segment.
	rel := math.Mod(h-s.TroughHour+24, 24)
	sharp := s.PeakSharpness
	if sharp == 0 { //vmtlint:allow floateq zero-value "unset" sentinel, exact by construction
		sharp = 1
	}
	if h < s.TroughHour {
		// Early-morning hours still descend from *yesterday's* peak.
		climb := s.peakHourForDay(day-1) - s.TroughHour
		return easeDown(s.peakForDay(day-1), s.TroughUtil, (rel-climb)/(24-climb), sharp)
	}
	climb := s.peakHourForDay(day) - s.TroughHour
	if rel <= climb {
		// Ascending half-cosine from trough toward today's peak.
		return easeUp(s.TroughUtil, s.peakForDay(day), rel/climb, sharp)
	}
	// Descending from today's peak toward tomorrow's trough.
	return easeDown(s.peakForDay(day), s.TroughUtil, (rel-climb)/(24-climb), sharp)
}

func (s Spec) peakForDay(day int) float64 {
	return indexOrEdge(s.PeakUtil, day)
}

func (s Spec) peakHourForDay(day int) float64 {
	return indexOrEdge(s.PeakHours, day)
}

// indexOrEdge returns xs[day], clamping day to the valid range so the
// first/last entry extends beyond the configured days.
func indexOrEdge(xs []float64, day int) float64 {
	if day < 0 {
		day = 0
	}
	if day >= len(xs) {
		day = len(xs) - 1
	}
	return xs[day]
}

// easeUp interpolates from trough a up to peak b as t goes 0→1: a
// half-cosine raised to the sharpness power, which preserves the
// endpoints and monotonicity while spending less time near the peak
// for sharpness > 1.
func easeUp(a, b, t, sharp float64) float64 {
	t = stats.Clamp(t, 0, 1)
	f := math.Pow((1-math.Cos(math.Pi*t))/2, sharp)
	return a + (b-a)*f
}

// easeDown interpolates from peak a down to trough b as t goes 0→1,
// mirroring easeUp so the curve is sharp at the peak on both sides.
func easeDown(a, b, t, sharp float64) float64 {
	t = stats.Clamp(t, 0, 1)
	f := math.Pow((1+math.Cos(math.Pi*t))/2, sharp)
	return b + (a-b)*f
}

// applyNoise perturbs samples with smoothed white noise, clamped to
// [0,1].
func applyNoise(samples []float64, amp float64, seed uint64) {
	rng := stats.NewRNG(seed)
	raw := make([]float64, len(samples))
	for i := range raw {
		raw[i] = rng.Normal(0, amp)
	}
	// Three-tap smoothing keeps minute-scale jitter from looking like
	// white static while preserving the seeded determinism.
	for i := range samples {
		n := raw[i]
		if i > 0 {
			n += raw[i-1]
		}
		if i+1 < len(raw) {
			n += raw[i+1]
		}
		samples[i] = stats.Clamp(samples[i]+n/3, 0, 1)
	}
}

// Step returns the sampling interval.
func (t *Trace) Step() time.Duration { return t.step }

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.samples) }

// Duration returns the time covered by the trace.
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.samples)-1) * t.step
}

// Horizon returns the trace's end time, satisfying workload.JobSource:
// a finite trace is a job source that runs out.
func (t *Trace) Horizon() time.Duration { return t.Duration() }

// At returns the utilization at time d, linearly interpolating between
// samples and clamping beyond the ends.
func (t *Trace) At(d time.Duration) float64 {
	if d <= 0 {
		return t.samples[0]
	}
	if d >= t.Duration() {
		return t.samples[len(t.samples)-1]
	}
	pos := float64(d) / float64(t.step)
	i := int(pos)
	frac := pos - float64(i)
	return stats.Lerp(t.samples[i], t.samples[i+1], frac)
}

// Values returns a copy of the raw samples.
func (t *Trace) Values() []float64 {
	out := make([]float64, len(t.samples))
	copy(out, t.samples)
	return out
}

// Peak returns the maximum utilization and its time.
func (t *Trace) Peak() (float64, time.Duration) {
	i := stats.MaxIndex(t.samples)
	return t.samples[i], time.Duration(i) * t.step
}

// FromSamples builds a trace directly from utilization samples in
// [0,1], sampled every step, for a series that a forecast or a
// production log supplies.
func FromSamples(samples []float64, step time.Duration) (*Trace, error) {
	if step <= 0 {
		return nil, fmt.Errorf("trace: step must be positive, got %v", step)
	}
	if len(samples) < 2 {
		return nil, fmt.Errorf("trace: need at least two samples, got %d", len(samples))
	}
	for i, v := range samples {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("trace: sample %v at index %d out of [0,1]", v, i)
		}
	}
	out := make([]float64, len(samples))
	copy(out, samples)
	return &Trace{step: step, samples: out}, nil
}

// traceJSON is a Trace's JSON form: {"step_s": seconds, "samples": [...]}.
type traceJSON struct {
	StepS   float64   `json:"step_s"`
	Samples []float64 `json:"samples"`
}

// MarshalJSON encodes the step and samples, so two traces encode alike
// exactly when they are the same series.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(traceJSON{StepS: t.step.Seconds(), Samples: t.samples})
}

// UnmarshalJSON decodes the MarshalJSON form through FromSamples,
// rejecting unknown keys and a step_s that is not a whole number of
// nanoseconds (which would not re-encode to itself).
func (t *Trace) UnmarshalJSON(b []byte) error {
	var j traceJSON
	if err := jsonio.Decode(bytes.NewReader(b), &j); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	step, err := stats.Duration("trace: step_s", j.StepS, time.Second)
	if err != nil {
		return err
	}
	if math.Float64bits(step.Seconds()) != math.Float64bits(j.StepS) {
		return fmt.Errorf("trace: step_s %v is not a whole number of nanoseconds", j.StepS)
	}
	tr, err := FromSamples(j.Samples, step)
	if err != nil {
		return err
	}
	*t = *tr
	return nil
}
