package vmt

import (
	"fmt"
	"testing"
	"time"
)

// Only a session whose scheduler, guard or fault injector reads the
// wax-state estimates runs the estimator pass: VMT-WA and
// VMT-preserve, and every session under a fault plan. Fault-free
// round robin, coolest-first, VMT-TA and the oracle VMT-WA ablation
// leave every server without an estimator, at the sweep scale and
// above the placement index's crossover.
func TestEstimatesEnabledOnlyForReaders(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
		want bool
	}
	var cases []tc
	for _, n := range []int{100, 600} {
		for _, p := range []Policy{PolicyRoundRobin, PolicyCoolestFirst, PolicyVMTTA} {
			cases = append(cases, tc{fmt.Sprintf("%s-%d", p, n), Scenario(n, p, 22), false})
		}
	}
	oracle := Scenario(100, PolicyVMTWA, 22)
	oracle.OracleWaxState = true
	cases = append(cases, tc{"vmt-wa-oracle-100", oracle, false})
	cases = append(cases,
		tc{"vmt-wa-100", Scenario(100, PolicyVMTWA, 22), true},
		tc{"vmt-preserve-100", Scenario(100, PolicyVMTPreserve, 22), true})
	for _, p := range []Policy{PolicyRoundRobin, PolicyCoolestFirst, PolicyVMTTA, PolicyVMTWA, PolicyVMTPreserve} {
		cfg := faultScenario(p)
		cases = append(cases, tc{fmt.Sprintf("%s-faulted", p), cfg, true})
	}
	oracle = faultScenario(PolicyVMTWA)
	oracle.OracleWaxState = true
	cases = append(cases, tc{"vmt-wa-oracle-faulted", oracle, true})

	for _, c := range cases {
		s, err := Open(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := s.Step(1); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := 0; i < s.cl.Len(); i++ {
			if got := s.cl.Server(i).Estimator() != nil; got != c.want {
				t.Fatalf("%s: server %d has an estimator: %v, want %v", c.name, i, got, c.want)
			}
		}
		if _, err := s.Close(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// The decision-level reference for skipping the estimator pass: a
// fault-free round robin, coolest-first or VMT-TA session with the
// pass forced on makes the same decisions as the default session,
// which skips it. Both step one tick at a time; after every tick each
// server's observed state (busy and free cores, group, air
// temperature, melt) must match, and the closed outcomes must be
// identical. The 600-server VMT-TA session answers its placements
// from the placement index.
func TestEstimatePassOffBitIdentical(t *testing.T) {
	day := smallTrace()
	cases := []Config{
		Scenario(100, PolicyRoundRobin, 0),
		Scenario(100, PolicyCoolestFirst, 0),
		Scenario(100, PolicyVMTTA, 22),
		Scenario(600, PolicyVMTTA, 22),
	}
	cases[0].JobStream = true
	cases[2].JobStream = true
	for _, base := range cases {
		base.Trace = day
		base.Step = 2 * time.Minute
		for _, workers := range []int{1, 2, 8} {
			cfg := base
			cfg.PhysicsWorkers = workers
			name := fmt.Sprintf("%s/n=%d/workers=%d", cfg.Policy, cfg.Servers, workers)
			plain, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			forced, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := forced.cl.EnableEstimates(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if plain.cl.Server(0).Estimator() != nil {
				t.Fatalf("%s: the default session runs the estimator pass; nothing is compared", name)
			}
			for !plain.Done() {
				if err := plain.Step(1); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := forced.Step(1); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				a, b := plain.Observe(), forced.Observe()
				for i := range a.Servers {
					if a.Servers[i] != b.Servers[i] {
						t.Fatalf("%s: tick %d server %d: %+v without the pass, %+v with it",
							name, a.Tick, i, a.Servers[i], b.Servers[i])
					}
				}
			}
			ra, err := plain.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rb, err := forced.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := identicalOutcome(ra, rb); d != "" {
				t.Fatalf("%s: %s", name, d)
			}
		}
	}
}
