package chiller

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vmt/internal/stats"
)

func load(vals ...float64) *stats.Series {
	s := stats.NewSeries(time.Hour)
	for _, v := range vals {
		s.Append(v)
	}
	return s
}

func TestValidate(t *testing.T) {
	if err := PaperPlant(1e6).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Plant{
		{CapacityW: 0, NominalCOP: 4},
		{CapacityW: 1e6, NominalCOP: 0},
		{CapacityW: 1e6, NominalCOP: 4, PartLoadPenalty: -1},
		{CapacityW: 1e6, NominalCOP: 4, PartLoadPenalty: 1},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCOPBehavior(t *testing.T) {
	p := PaperPlant(1e6)
	// Full load runs at nominal COP.
	if got := p.COPAt(1e6); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("full-load COP = %v", got)
	}
	// Part load is derated.
	half := p.COPAt(5e5)
	if half >= 4.5 {
		t.Fatalf("part-load COP %v should be below nominal", half)
	}
	// Lower load, worse COP (monotone derating).
	if q := p.COPAt(1e5); q >= half {
		t.Fatalf("10%% load COP %v should be below 50%% load %v", q, half)
	}
	// Zero/negative loads are safe.
	if p.COPAt(0) != 4.5 || p.COPAt(-5) != 4.5 {
		t.Fatal("idle COP should be nominal")
	}
	// No penalty → constant COP.
	flat := Plant{CapacityW: 1e6, NominalCOP: 4, PartLoadPenalty: 0}
	if flat.COPAt(1e5) != 4 {
		t.Fatal("zero penalty should give constant COP")
	}
}

func TestElectricalPower(t *testing.T) {
	p := Plant{CapacityW: 1e6, NominalCOP: 5, PartLoadPenalty: 0}
	if got := p.ElectricalPowerW(1e6); math.Abs(got-2e5) > 1e-9 {
		t.Fatalf("power = %v, want 200kW", got)
	}
	if p.ElectricalPowerW(0) != 0 {
		t.Fatal("idle plant should draw nothing")
	}
}

func TestSizeForPeak(t *testing.T) {
	p, err := SizeForPeak(load(500, 900, 700), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.CapacityW-990) > 1e-9 {
		t.Fatalf("capacity = %v, want 990", p.CapacityW)
	}
	for _, q := range load(500, 900, 700).Values {
		if q > p.CapacityW {
			t.Fatal("sized plant should not violate its own series")
		}
	}
	if _, err := SizeForPeak(load(), 0); err == nil {
		t.Fatal("empty series should fail")
	}
	if _, err := SizeForPeak(load(1), -0.1); err == nil {
		t.Fatal("negative margin should fail")
	}
	if _, err := SizeForPeak(load(0, 0), 0); err == nil {
		t.Fatal("zero peak should fail")
	}
}

// Property: electrical power is monotone in heat load, non-negative,
// and at least the nominal-COP draw (derating only ever costs energy).
func TestPowerMonotoneProperty(t *testing.T) {
	p := PaperPlant(1e6)
	f := func(a, b uint32) bool {
		qa := float64(a % 2_000_000)
		qb := float64(b % 2_000_000)
		if qa > qb {
			qa, qb = qb, qa
		}
		ea, eb := p.ElectricalPowerW(qa), p.ElectricalPowerW(qb)
		return ea <= eb+1e-9 && ea >= 0 && ea >= qa/p.NominalCOP-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
