package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableIMatchesPaper(t *testing.T) {
	want := []struct {
		name  string
		power float64
		class Class
	}{
		{"WebSearch", 37.2, Hot},
		{"DataCaching", 13.5, Cold},
		{"VideoEncoding", 60.9, Hot},
		{"VirusScan", 3.4, Cold},
		{"Clustering", 59.5, Hot},
	}
	got := TableI()
	if len(got) != len(want) {
		t.Fatalf("TableI has %d entries", len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.name || g.CPUPowerW != w.power || g.Class != w.class {
			t.Errorf("TableI[%d] = %+v, want %+v", i, g, w)
		}
	}
}

func TestClassString(t *testing.T) {
	if Hot.String() != "hot" || Cold.String() != "cold" {
		t.Fatal("Class.String mismatch")
	}
}

func TestPerCorePower(t *testing.T) {
	if got := WebSearch.PerCorePowerW(); math.Abs(got-37.2/8) > 1e-12 {
		t.Fatalf("per-core power = %v", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Workload{Name: "", CPUPowerW: 1}).Validate(); err == nil {
		t.Fatal("empty name should fail")
	}
	if err := (Workload{Name: "x", CPUPowerW: 0}).Validate(); err == nil {
		t.Fatal("zero power should fail")
	}
	for _, w := range TableI() {
		if err := w.Validate(); err != nil {
			t.Errorf("TableI %s invalid: %v", w.Name, err)
		}
	}
}

func TestPaperMixHotShare(t *testing.T) {
	m := PaperMix()
	// 25+15+20 = 60% hot per Section IV-E ("roughly 60-40 split").
	if got := m.HotShare(); math.Abs(got-0.60) > 1e-12 {
		t.Fatalf("hot share = %v, want 0.60", got)
	}
}

func TestMixNormalization(t *testing.T) {
	m, err := NewMix(MixEntry{WebSearch, 2}, MixEntry{VirusScan, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Share("WebSearch"); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("share = %v, want 0.25", got)
	}
	if got := m.Share("VirusScan"); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("share = %v, want 0.75", got)
	}
	if got := m.Share("Absent"); got != 0 {
		t.Fatalf("absent share = %v", got)
	}
}

func TestMixValidation(t *testing.T) {
	if _, err := NewMix(); err == nil {
		t.Fatal("empty mix should fail")
	}
	if _, err := NewMix(MixEntry{WebSearch, 0}); err == nil {
		t.Fatal("zero share should fail")
	}
	if _, err := NewMix(MixEntry{WebSearch, 1}, MixEntry{WebSearch, 1}); err == nil {
		t.Fatal("duplicate entries should fail")
	}
}

func TestMixEntriesAreCopies(t *testing.T) {
	m := PaperMix()
	es := m.Entries()
	es[0].Share = 99
	if m.Entries()[0].Share == 99 {
		t.Fatal("Entries leaked internal state")
	}
}

func TestMeanPerCorePower(t *testing.T) {
	m, err := NewMix(MixEntry{WebSearch, 0.5}, MixEntry{DataCaching, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*37.2/8 + 0.5*13.5/8
	if got := m.MeanPerCorePowerW(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean per-core power = %v, want %v", got, want)
	}
}

// Property: mix shares always normalize to 1 and stay positive.
func TestMixNormalizationProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		sa, sb, sc := float64(a)+1, float64(b)+1, float64(c)+1
		m, err := NewMix(
			MixEntry{WebSearch, sa},
			MixEntry{DataCaching, sb},
			MixEntry{Clustering, sc},
		)
		if err != nil {
			return false
		}
		var sum float64
		for _, e := range m.Entries() {
			if e.Share <= 0 {
				return false
			}
			sum += e.Share
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
