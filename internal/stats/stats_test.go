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

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("Percentile(nil) err = %v", err)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("Percentile(101) should error")
	}
	// Input must not be mutated.
	if xs[0] != 15 || xs[4] != 50 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := Percentile([]float64{0, 10}, 90)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-9) > 1e-12 {
		t.Fatalf("Percentile(90) = %v, want 9", got)
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

// Property: percentile is monotonic in p and bounded by min/max.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		prev := lo
		for p := 0.0; p <= 100; p += 5 {
			v, err := Percentile(xs, p)
			if err != nil {
				return false
			}
			if v < prev-1e-9 || v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
