package thermal

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"vmt/internal/pcm"
)

// FuzzReadFleetState drives the fleet snapshot decoder with arbitrary
// input (the FuzzReadWindows pattern, applied to the SoA store's
// serialization boundary). The decoder must never panic; anything it
// accepts must satisfy the Validate invariants, survive a
// Encode → ReadFleetState round trip as a fixpoint, and restore
// cleanly into a matching fleet.
func FuzzReadFleetState(f *testing.F) {
	// Seed with real writer output from a stepped fleet plus edge
	// shapes; the committed corpus under testdata/fuzz mirrors these.
	fl, err := NewFleet(PaperServer(), pcm.CommercialParaffin(), []float64{22, 22})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := fl.StepRange(0, 2, []float64{450, 100}, time.Minute); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fl.CaptureState().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("\n\n")
	f.Add(`{"v":1,"n":0}`)
	f.Add(`{"v":1,"n":1}` + "\n" + `{"id":0,"air_c":22,"wax_h_j":1.5e8,"wax_t_c":22,"melt":0.5,"inlet_c":22,"input_j":0,"eject_j":0,"stored_j":0}`)
	f.Add(`{"v":2,"n":0}`)
	f.Add(`{"v":1,"n":3}` + "\n" + `{"id":0}`)
	f.Add(`{"v":1,"n":1}` + "\n" + `{"id":0,"melt":1.5}`)
	f.Add(`{"v":1,"n":1}` + "\n" + `{"id":0,"air_c":1e999}`)
	f.Add(`{"v":1,"n":0} trailing`)
	f.Add(`{not json}`)

	f.Fuzz(func(t *testing.T, input string) {
		st, err := ReadFleetState(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("accepted state violates invariants: %v", err)
		}
		// Fixpoint: re-encode and decode again; the decoder must accept
		// its own writer's output and reproduce the state exactly
		// (floats round-trip via shortest representation).
		var out bytes.Buffer
		if err := st.Encode(&out); err != nil {
			t.Fatalf("re-encode of accepted state failed: %v", err)
		}
		again, err := ReadFleetState(&out)
		if err != nil {
			t.Fatalf("decode of re-encoded state failed: %v", err)
		}
		if again.N != st.N || len(again.Records) != len(st.Records) {
			t.Fatalf("round trip changed size: %d/%d -> %d/%d",
				st.N, len(st.Records), again.N, len(again.Records))
		}
		for i := range st.Records {
			if !recordsBitEqual(st.Records[i], again.Records[i]) {
				t.Fatalf("record %d changed in round trip: %+v -> %+v",
					i, st.Records[i], again.Records[i])
			}
		}
	})
}

// recordsBitEqual compares two records with bit equality on every
// float (struct equality would conflate 0 and -0 and trip on NaN,
// which Validate already excludes — bit equality states the fixpoint
// property directly).
func recordsBitEqual(a, b ServerRecord) bool {
	if a.ID != b.ID {
		return false
	}
	av := [...]float64{a.AirC, a.WaxHJ, a.WaxTC, a.Melt, a.InletC, a.InputJ, a.EjectJ, a.StoredJ}
	bv := [...]float64{b.AirC, b.WaxHJ, b.WaxTC, b.Melt, b.InletC, b.InputJ, b.EjectJ, b.StoredJ}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}
