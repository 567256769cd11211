package cooling

import (
	"math"
	"testing"
	"time"

	"vmt/internal/stats"
)

func series(vals ...float64) *stats.Series {
	s := stats.NewSeries(time.Minute)
	for _, v := range vals {
		s.Append(v)
	}
	return s
}

func TestSummarize(t *testing.T) {
	sum, err := Summarize(series(100, 300, 200, 50))
	if err != nil {
		t.Fatal(err)
	}
	if sum.PeakW != 300 || sum.PeakAt != time.Minute {
		t.Fatalf("peak %v@%v", sum.PeakW, sum.PeakAt)
	}
	if sum.TroughW != 50 {
		t.Fatalf("trough %v", sum.TroughW)
	}
	if math.Abs(sum.MeanW-162.5) > 1e-12 {
		t.Fatalf("mean %v", sum.MeanW)
	}
	if math.Abs(sum.FlatnessPct-50.0/300*100) > 1e-12 {
		t.Fatalf("flatness %v", sum.FlatnessPct)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(series()); err == nil {
		t.Fatal("empty series should fail")
	}
}

func TestPeakReduction(t *testing.T) {
	base := series(100, 400, 200)
	variant := series(110, 348, 210)
	got, err := PeakReductionPct(base, variant)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-13) > 1e-12 {
		t.Fatalf("reduction = %v, want 13", got)
	}
	// A worse variant yields a negative reduction, not an error.
	worse := series(100, 500)
	got, err = PeakReductionPct(base, worse)
	if err != nil {
		t.Fatal(err)
	}
	if got >= 0 {
		t.Fatalf("worse variant should be negative, got %v", got)
	}
}

func TestPeakReductionBadBaseline(t *testing.T) {
	if _, err := PeakReductionPct(series(0, 0), series(1)); err == nil {
		t.Fatal("zero baseline should fail")
	}
	if _, err := PeakReductionPct(series(), series(1)); err == nil {
		t.Fatal("empty baseline should fail")
	}
	if _, err := PeakReductionPct(series(1), series()); err == nil {
		t.Fatal("empty variant should fail")
	}
}
