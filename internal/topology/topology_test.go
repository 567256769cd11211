package topology

import (
	"encoding/json"
	"testing"
)

func testSpec() Spec {
	return Spec{ServersPerRack: 4, RacksPerRow: 3, RowsPerZone: 2}
}

func TestSpecValidate(t *testing.T) {
	s := testSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Spec{
		{ServersPerRack: 0, RacksPerRow: 3, RowsPerZone: 2},
		{ServersPerRack: 4, RacksPerRow: -1, RowsPerZone: 2},
		{ServersPerRack: 4, RacksPerRow: 3, RowsPerZone: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v should fail validation", bad)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec should validate (absent topology): %v", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := testSpec()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip changed the spec: %+v != %+v", got, s)
	}
}

// TestDomainGeometry pins the ID-order layout: 26 servers in racks of
// 4, rows of 3 racks, zones of 2 rows — a partially filled tail at
// every level.
func TestDomainGeometry(t *testing.T) {
	topo, err := Build(testSpec(), 26)
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[string]int{DomainRack: 7, DomainRow: 3, DomainZone: 2} {
		if got, err := topo.DomainCount(kind); err != nil || got != want {
			t.Errorf("DomainCount(%s) = %d, %v, want %d", kind, got, err, want)
		}
	}

	cases := []struct {
		kind   string
		index  int
		lo, hi int
	}{
		{DomainRack, 0, 0, 4},
		{DomainRack, 6, 24, 26}, // partial tail rack
		{DomainRow, 0, 0, 12},
		{DomainRow, 2, 24, 26}, // partial tail row
		{DomainZone, 0, 0, 24},
		{DomainZone, 1, 24, 26},
	}
	for _, c := range cases {
		lo, hi, err := topo.DomainRange(c.kind, c.index)
		if err != nil {
			t.Errorf("DomainRange(%s, %d): %v", c.kind, c.index, err)
			continue
		}
		if lo != c.lo || hi != c.hi {
			t.Errorf("DomainRange(%s, %d) = [%d,%d), want [%d,%d)", c.kind, c.index, lo, hi, c.lo, c.hi)
		}
	}
}

// TestMembershipMatchesRanges: the ranges of each kind tile the fleet
// in ID order, so every server belongs to exactly one domain of each
// kind.
func TestMembershipMatchesRanges(t *testing.T) {
	topo, err := Build(testSpec(), 26)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{DomainRack, DomainRow, DomainZone} {
		count, err := topo.DomainCount(kind)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for i := 0; i < count; i++ {
			lo, hi, err := topo.DomainRange(kind, i)
			if err != nil {
				t.Fatalf("DomainRange(%s, %d): %v", kind, i, err)
			}
			if lo != next || hi <= lo {
				t.Errorf("%s %d spans [%d,%d), want a non-empty range from %d", kind, i, lo, hi, next)
			}
			next = hi
		}
		if next != 26 {
			t.Errorf("%s domains end at server %d, want 26", kind, next)
		}
	}
}

func TestDomainRangeErrors(t *testing.T) {
	topo, err := Build(testSpec(), 26)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := topo.DomainRange("pdu", 0); err == nil {
		t.Error("unknown kind should error")
	}
	if _, _, err := topo.DomainRange(DomainRack, 7); err == nil {
		t.Error("rack index past the fleet should error")
	}
	if _, _, err := topo.DomainRange(DomainRack, -1); err == nil {
		t.Error("negative index should error")
	}
	if _, err := topo.DomainCount("pod"); err == nil {
		t.Error("unknown kind should error in DomainCount")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{}, 10); err == nil {
		t.Error("zero spec should not build")
	}
	if _, err := Build(testSpec(), 0); err == nil {
		t.Error("empty fleet should not build")
	}
}

func TestKnownKind(t *testing.T) {
	for _, k := range []string{DomainRack, DomainRow, DomainZone} {
		if !KnownKind(k) {
			t.Errorf("KnownKind(%q) = false", k)
		}
	}
	if KnownKind("pdu") || KnownKind("") {
		t.Error("unknown kinds should not be known")
	}
}
