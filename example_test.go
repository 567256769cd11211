package vmt_test

import (
	"fmt"
	"time"

	"vmt"
	"vmt/internal/workload"
)

// The TCO arithmetic is exact, so its examples double as the paper's
// Section V-E numbers.
func ExampleRunTCOStudy() {
	study, err := vmt.RunTCOStudy(12.8) // the paper's headline reduction
	if err != nil {
		panic(err)
	}
	fmt.Printf("cooling system: %.1f MW instead of 25 MW\n", study.Best.CoolingLoadMW)
	fmt.Printf("lifetime savings: $%.0f\n", study.Best.GrossCoolingSavingsUSD)
	fmt.Printf("or extra servers: %d\n", study.Best.ExtraServers)
	fmt.Printf("conservative 6%%: $%.0f or %d servers\n",
		study.Conservative.GrossCoolingSavingsUSD, study.Conservative.ExtraServers)
	// Output:
	// cooling system: 21.8 MW instead of 25 MW
	// lifetime savings: $2688000
	// or extra servers: 7339
	// conservative 6%: $1260000 or 3191 servers
}

func ExampleScenario() {
	cfg := vmt.Scenario(1000, vmt.PolicyVMTWA, 22)
	fmt.Println(cfg.Servers, cfg.Policy, cfg.GV)
	// Output: 1000 vmt-wa 22
}

func ExampleConfig_Validate() {
	bad := vmt.Scenario(100, vmt.PolicyVMTTA, 0) // VMT needs a GV
	fmt.Println(bad.Validate())
	// Output: vmt: policy vmt-ta requires a positive GV
}

// A session hands the simulation clock to the caller, here the loop of
// README's session example. The open-loop source ends at Horizon;
// without one the session would be open-ended and Done never true.
// Observe reports every server at every tick, before the first Step
// included, so the loop could as well observe before it steps.
func ExampleOpen() {
	cfg := vmt.Scenario(100, vmt.PolicyVMTTA, 22)
	cfg.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30}
	cfg.Horizon = 2 * time.Hour

	s, err := vmt.Open(cfg)
	if err != nil {
		panic(err)
	}
	steps := 0
	for !s.Done() {
		if err := s.Step(5); err != nil {
			panic(err)
		}
		steps++
		obs := s.Observe()
		if obs.Servers[3].MeltFrac > 0.9 {
			s.Place("WebSearch", 7)
		}
	}
	res, err := s.Close()
	if err != nil {
		panic(err)
	}
	fmt.Println(steps, "steps to", s.Now(), "with", res.CoolingLoadW.Len(), "cooling samples")
	// Output: 24 steps to 2h0m0s with 120 cooling samples
}
