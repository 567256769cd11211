package vmt

import "testing"

// The headline oversubscription claim, validated in simulation: with a
// modest safety derate, the enlarged VMT fleet fits under the
// round-robin fleet's cooling budget.
func TestOversubscriptionFitsWithSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	st, err := RunOversubscriptionStudy(200, PolicyVMTTA, 22, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if st.ExtraServers <= 0 {
		t.Fatalf("no extra servers: %+v", st)
	}
	if !st.FitsBudget {
		t.Fatalf("derated expansion should fit: %+v", st)
	}
	if st.HeadroomPct <= 0 {
		t.Fatalf("headroom should be positive, got %v", st.HeadroomPct)
	}
	if st.MeasuredReductionPct < 8 {
		t.Fatalf("measured reduction %v implausibly low", st.MeasuredReductionPct)
	}
}

func TestOversubscriptionValidation(t *testing.T) {
	if _, err := RunOversubscriptionStudy(10, PolicyVMTTA, 22, -0.1); err == nil {
		t.Fatal("negative safety should fail")
	}
	if _, err := RunOversubscriptionStudy(10, PolicyVMTTA, 22, 1); err == nil {
		t.Fatal("safety of 1 should fail")
	}
	if _, err := RunOversubscriptionStudy(0, PolicyVMTTA, 22, 0); err == nil {
		t.Fatal("zero servers should fail")
	}
}
