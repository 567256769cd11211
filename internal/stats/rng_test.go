package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(10, 2)
	}
	mu := Mean(xs)
	sd := StdDev(xs)
	if math.Abs(mu-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ≈10", mu)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Fatalf("Normal stdev = %v, want ≈2", sd)
	}
}

func TestNormalZeroStdev(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if got := r.Normal(3, 0); got != 3 {
			t.Fatalf("Normal(3,0) = %v", got)
		}
	}
}

func TestUniformityRough(t *testing.T) {
	// Chi-square-ish sanity check over 16 buckets.
	r := NewRNG(123)
	const n = 160000
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*16)]++
	}
	want := n / 16
	for i, c := range buckets {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Fatalf("bucket %d count %d deviates from %d", i, c, want)
		}
	}
}
