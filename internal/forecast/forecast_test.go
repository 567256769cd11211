package forecast

import (
	"math"
	"testing"
	"time"

	"vmt/internal/stats"
	"vmt/internal/trace"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.5); err == nil {
		t.Fatal("zero slot should fail")
	}
	if _, err := New(7*time.Minute, 0.5); err == nil {
		t.Fatal("non-divisor slot should fail")
	}
	if _, err := New(time.Hour, 0); err == nil {
		t.Fatal("zero alpha should fail")
	}
	if _, err := New(time.Hour, 1.5); err == nil {
		t.Fatal("alpha > 1 should fail")
	}
}

func TestObserveValidation(t *testing.T) {
	f, err := New(time.Hour, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ObserveDay(make([]float64, 3)); err == nil {
		t.Fatal("wrong length should fail")
	}
	if err := f.ObserveDay(make([]float64, 24)); err == nil {
		t.Fatal("all-zero day should fail")
	}
	day := make([]float64, 24)
	day[0] = -1
	day[1] = 0.5
	if err := f.ObserveDay(day); err == nil {
		t.Fatal("negative sample should fail")
	}
	if _, err := f.PredictDay(); err == nil {
		t.Fatal("prediction without history should fail")
	}
}

// With a stable diurnal pattern, the forecaster converges on it.
func TestLearnsStablePattern(t *testing.T) {
	f, err := New(time.Hour, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	day := make([]float64, 24)
	for h := range day {
		day[h] = 0.3 + 0.6*math.Exp(-math.Pow(float64(h)-20, 2)/18)
	}
	for d := 0; d < 5; d++ {
		if err := f.ObserveDay(day); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := f.PredictDay()
	if err != nil {
		t.Fatal(err)
	}
	mae, err := MAE(pred, day)
	if err != nil {
		t.Fatal(err)
	}
	if mae > 0.01 {
		t.Fatalf("MAE %v on a stable pattern", mae)
	}
	if f.days != 5 {
		t.Fatalf("days = %d", f.days)
	}
}

// With noisy days, the forecast still tracks the underlying profile
// well enough to drive GV selection (MAE well under the noise level).
func TestLearnsNoisyPattern(t *testing.T) {
	f, err := New(time.Hour, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	base := make([]float64, 24)
	for h := range base {
		base[h] = 0.3 + 0.55*math.Exp(-math.Pow(float64(h)-20, 2)/20)
	}
	noisy := func() []float64 {
		day := make([]float64, 24)
		for h := range day {
			day[h] = stats.Clamp(base[h]+rng.Normal(0, 0.05), 0.01, 1)
		}
		return day
	}
	for d := 0; d < 10; d++ {
		if err := f.ObserveDay(noisy()); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := f.PredictDay()
	if err != nil {
		t.Fatal(err)
	}
	mae, err := MAE(pred, base)
	if err != nil {
		t.Fatal(err)
	}
	if mae > 0.04 {
		t.Fatalf("MAE %v exceeds the noise floor", mae)
	}
}

// End-to-end with the trace generator: observe the paper trace's first
// day, predict the second.
func TestForecastsPaperTrace(t *testing.T) {
	spec := trace.PaperTwoDay()
	spec.NoiseAmp = 0
	tr, err := trace.Generate(spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(time.Minute, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	vals := tr.Values()
	if err := f.ObserveDay(vals[:24*60]); err != nil {
		t.Fatal(err)
	}
	pred, err := f.PredictDay()
	if err != nil {
		t.Fatal(err)
	}
	mae, err := MAE(pred, vals[24*60:48*60])
	if err != nil {
		t.Fatal(err)
	}
	// Day 2 peaks higher (0.95 vs 0.90) and two hours later, so the
	// one-day forecast carries real error — but far less than a naive
	// flat prediction.
	if mae > 0.06 {
		t.Fatalf("one-day-ahead MAE %v too large", mae)
	}
}

func TestMAEValidation(t *testing.T) {
	if _, err := MAE(nil, nil); err == nil {
		t.Fatal("empty should fail")
	}
	if _, err := MAE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatch should fail")
	}
	got, err := MAE([]float64{1, 2}, []float64{2, 4})
	if err != nil || got != 1.5 {
		t.Fatalf("MAE = %v, %v", got, err)
	}
}
