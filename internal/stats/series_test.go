package stats

import (
	"testing"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries(time.Minute)
	for _, v := range []float64{1, 5, 3} {
		s.Append(v)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.TimeAt(2); got != 2*time.Minute {
		t.Fatalf("TimeAt(2) = %v", got)
	}
	peak, at, err := s.Peak()
	if err != nil || peak != 5 || at != time.Minute {
		t.Fatalf("Peak = %v @ %v, err %v", peak, at, err)
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
}

func TestSeriesPeakEmpty(t *testing.T) {
	s := NewSeries(time.Second)
	if _, _, err := s.Peak(); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestNewSeriesPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive step")
		}
	}()
	NewSeries(0)
}

func TestDownsample(t *testing.T) {
	s := NewSeries(time.Minute)
	for i := 0; i < 10; i++ {
		s.Append(float64(i))
	}
	d := s.Downsample(3)
	if d.Step != 3*time.Minute {
		t.Fatalf("Step = %v", d.Step)
	}
	want := []float64{0, 3, 6, 9}
	if len(d.Values) != len(want) {
		t.Fatalf("len = %d", len(d.Values))
	}
	for i, v := range want {
		if d.Values[i] != v {
			t.Fatalf("Downsample[%d] = %v, want %v", i, d.Values[i], v)
		}
	}
}

func TestSeriesString(t *testing.T) {
	s := NewSeries(time.Minute)
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
	s.Append(4)
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}
