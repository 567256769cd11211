package vmt

import (
	"testing"
	"time"

	"vmt/internal/energy"
	"vmt/internal/trace"
)

func TestAblationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	pts, err := AblationStudy(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	red := map[string]float64{}
	for _, p := range pts {
		red[p.Name] = p.ReductionPct
	}
	for _, name := range []string{"ta", "wa", "wa-oracle", "wa-budget-2%", "wa-budget-100%"} {
		if _, ok := red[name]; !ok {
			t.Fatalf("missing variant %s", name)
		}
	}
	// The wax feedback is what GV=20 needs: WA must beat TA.
	if red["wa"] <= red["ta"] {
		t.Fatalf("wa (%.2f) should beat ta (%.2f) at GV=20", red["wa"], red["ta"])
	}
	// Perfect wax-state knowledge buys little: the estimator is good.
	if diff := red["wa-oracle"] - red["wa"]; diff < -0.5 || diff > 1.5 {
		t.Fatalf("oracle delta %.2f outside the small band", diff)
	}
	// Starving the migration budget costs some benefit; an unbounded
	// budget is no better than the default.
	if red["wa-budget-2%"] > red["wa"]+0.1 {
		t.Fatalf("tiny budget (%.2f) should not beat the default (%.2f)",
			red["wa-budget-2%"], red["wa"])
	}
	if red["wa-budget-100%"] < red["wa"]-0.5 {
		t.Fatalf("unbounded budget (%.2f) should not lose to the default (%.2f)",
			red["wa-budget-100%"], red["wa"])
	}
}

// hotSecondDay returns the paper's two-day trace with a day-one peak
// of dayOnePeak and a far hotter day two (0.95): the "very hot peak
// still to come" scenario that motivates VMT-preserve.
func hotSecondDay(dayOnePeak float64) trace.Spec {
	s := trace.PaperTwoDay()
	s.PeakUtil = []float64{dayOnePeak, 0.95}
	return s
}

// interDayEdges splits a run's samples at hour 29, the inter-day
// trough: day one is the window before it, day two the rest.
func interDayEdges(r *Result) []int {
	return []int{0, int((29 * time.Hour) / r.Config.Step), r.CoolingLoadW.Len()}
}

// preserveDays runs round robin, VMT-WA and VMT-preserve on tr at GV 22
// as one batch, VMT-preserve with the given PreserveUntil (0 keeps the
// default), and returns VMT-WA's and VMT-preserve's peak reductions on
// day one and day two.
func preserveDays(tb testing.TB, servers int, tr trace.Spec, until time.Duration) (wa, pres []float64) {
	tb.Helper()
	cfgs := make([]Config, 3)
	for i, p := range []Policy{PolicyRoundRobin, PolicyVMTWA, PolicyVMTPreserve} {
		cfgs[i] = Scenario(servers, p, 22)
		cfgs[i].Trace = tr
	}
	cfgs[2].PreserveUntil = until
	runs, err := RunMany(cfgs, BatchOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	days := interDayEdges(runs[0])
	return windowPeakReductions(runs[0], runs[1], days...),
		windowPeakReductions(runs[0], runs[2], days...)
}

// The preserving extension's reason to exist: on a warm night where
// overnight refreeze is incomplete, standard VMT-WA arrives at the
// second (hotter) peak with exhausted wax, while preservation arrives
// with capacity left.
func TestPreserveStudyWarmNight(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	tr := hotSecondDay(0.90)
	tr.TroughUtil = 0.62 // warm night: refreeze stalls
	waD, presD := preserveDays(t, 100, tr, 38*time.Hour)
	waD1, waD2, presD1, presD2 := waD[0], waD[1], presD[0], presD[1]
	if presD2 <= waD2 {
		t.Fatalf("preserving should improve day 2: %.2f vs %.2f", presD2, waD2)
	}
	// The price: preservation gives up day-one shaving.
	if presD1 >= waD1 {
		t.Fatalf("preservation should cost day-1 benefit: %.2f vs %.2f", presD1, waD1)
	}
}

// On the standard trace (cold nights, full refreeze), preservation is
// pointless: day two matches standard VMT-WA.
func TestPreserveStudyNeutralOnStandardTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	wa, pres := preserveDays(t, 100, hotSecondDay(0.75), 0)
	if diff := pres[1] - wa[1]; diff < -1 || diff > 1 {
		t.Fatalf("day-2 reductions should match when nights refreeze: %.2f vs %.2f",
			pres[1], wa[1])
	}
}

func TestDayPeakReductionsSplit(t *testing.T) {
	cfg := BaselineScenario(4)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := windowPeakReductions(base, base, interDayEdges(base)...)
	if len(d) != 2 || d[0] != 0 || d[1] != 0 {
		t.Fatalf("self-comparison should be zero on both days: %v", d)
	}
}

// VMT shifts cooling energy out of the expensive tariff window: the
// stored peak heat is released overnight at off-peak rates, so the
// time-of-use bill falls even though total heat is unchanged.
func TestEnergyCostStudyShiftsOffPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	st, err := RunEnergyCostStudy(100, 22, energy.TypicalTOU())
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakShareVMT >= st.PeakShareRR {
		t.Fatalf("VMT peak-window share %.3f should fall below RR's %.3f",
			st.PeakShareVMT, st.PeakShareRR)
	}
	if st.SavingsPct <= 0 {
		t.Fatalf("TOU savings should be positive, got %.2f%%", st.SavingsPct)
	}
	if st.SavingsPct > 15 {
		t.Fatalf("TOU savings %.2f%% implausibly large for this tariff", st.SavingsPct)
	}
	if st.BillRR <= 0 || st.BillVMT <= 0 {
		t.Fatalf("bills must be positive: %v / %v", st.BillRR, st.BillVMT)
	}
}

func TestEnergyCostStudyValidation(t *testing.T) {
	if _, err := RunEnergyCostStudy(0, 22, energy.TypicalTOU()); err == nil {
		t.Fatal("zero servers should fail")
	}
	bad := energy.Tariff{OffPeakUSDPerKWh: -1}
	if _, err := RunEnergyCostStudy(4, 22, bad); err == nil {
		t.Fatal("bad tariff should fail")
	}
}

// The spatial parenthetical: physically clustering the hot group
// overloads its zone's CRAC; striping the group across zones keeps
// every CRAC near the balanced load.
func TestZonePlacementStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster run")
	}
	st, err := RunZonePlacementStudy(100, 5, 22)
	if err != nil {
		t.Fatal(err)
	}
	if st.StripedPeakToMean > 1.08 {
		t.Fatalf("striped layout imbalance %.3f should be near 1", st.StripedPeakToMean)
	}
	if st.ClusteredPeakToMean < st.StripedPeakToMean+0.1 {
		t.Fatalf("clustered layout (%.3f) should be clearly worse than striped (%.3f)",
			st.ClusteredPeakToMean, st.StripedPeakToMean)
	}
	if st.CRACOversizePct < 10 {
		t.Fatalf("CRAC oversize %.1f%% implausibly small", st.CRACOversizePct)
	}
}

func TestZonePlacementValidation(t *testing.T) {
	if _, err := RunZonePlacementStudy(10, 0, 22); err == nil {
		t.Fatal("zero zones should fail")
	}
	if _, err := RunZonePlacementStudy(0, 2, 22); err == nil {
		t.Fatal("zero servers should fail")
	}
}
