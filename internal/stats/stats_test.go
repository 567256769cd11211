package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSimple(t *testing.T) {
	got := Mean([]float64{1, 2, 3, 4})
	if got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestSumKahanStability(t *testing.T) {
	// 1e7 additions of 0.1 should land very close to 1e6.
	xs := make([]float64, 1e7)
	for i := range xs {
		xs[i] = 0.1
	}
	got := Sum(xs)
	if math.Abs(got-1e6) > 1e-6 {
		t.Fatalf("Sum drift: got %v, want 1e6", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	lo, err := Min(xs)
	if err != nil || lo != -1 {
		t.Fatalf("Min = %v, %v", lo, err)
	}
	hi, err := Max(xs)
	if err != nil || hi != 7 {
		t.Fatalf("Max = %v, %v", hi, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMaxIndex(t *testing.T) {
	if got := MaxIndex(nil); got != -1 {
		t.Fatalf("MaxIndex(nil) = %d, want -1", got)
	}
	if got := MaxIndex([]float64{1, 5, 5, 2}); got != 1 {
		t.Fatalf("MaxIndex = %d, want first occurrence 1", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{4}); got != 0 {
		t.Fatalf("StdDev single = %v, want 0", got)
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestClampAndLerp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
	if Lerp(10, 20, 0.5) != 15 {
		t.Fatal("Lerp misbehaves")
	}
}

// Property: Clamp always returns a value within [lo,hi] when lo <= hi.
func TestClampProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDuration(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		unit time.Duration
		want time.Duration
	}{
		{90, time.Minute, 90 * time.Minute},
		{0.3, time.Second, 300 * time.Millisecond},
		{-1.5, time.Second, -1500 * time.Millisecond},
		{1.5e-9, time.Second, 2}, // nearest nanosecond, not truncated
		{153722867, time.Minute, 153722867 * time.Minute},
	} {
		got, err := Duration("k", tc.x, tc.unit)
		if err != nil || got != tc.want {
			t.Errorf("Duration(%v, %v) = %v, %v; want %v", tc.x, tc.unit, got, err, tc.want)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 153722868} {
		_, err := Duration("horizon_min", x, time.Minute)
		if err == nil || !strings.Contains(err.Error(), "horizon_min") {
			t.Errorf("Duration(%v min) = %v, want an error naming the key", x, err)
		}
	}
}
