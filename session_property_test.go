package vmt

import (
	"io"
	"testing"
	"testing/quick"
	"time"

	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// instrumented turns on every observational surface at once — the
// configuration under which bit-identity is hardest to preserve,
// because any instrument that leaked into a control decision would
// show up as divergence.
func instrumented(cfg Config) Config {
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewRecorder()
	cfg.Stream = telemetry.NewStream(telemetry.StreamOptions{WindowTicks: 8})
	cfg.Fleet = telemetry.NewFleetPublisher(telemetry.NewNDJSONFleetLog(io.Discard))
	cfg.ProfileBands = true
	return cfg
}

// stepSession opens cfg and advances it with the given chunk schedule
// (cycling through chunks until done), returning the closed Result.
func stepSession(t *testing.T, cfg Config, chunks []int) *Result {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !s.Done(); i++ {
		n := chunks[i%len(chunks)]
		if err := s.Step(n); err != nil {
			t.Fatal(err)
		}
		if i > 100000 {
			t.Fatal("session never finished")
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The tentpole property: a session stepped tick-by-tick, or in ragged
// chunks, has an outcome bit-identical (every series, counter and
// grid, via identicalOutcome) to the monolithic Run of the same Config
// at every physics worker count — fully instrumented, across policies
// and both load models.
func TestSessionSteppedBitIdenticalToRun(t *testing.T) {
	f := func(peakPct, troughPct, noisePct uint8, seed uint64, wa, stream bool, c1, c2, c3 uint8) bool {
		policy := PolicyVMTTA
		if wa {
			policy = PolicyVMTWA
		}
		base := Scenario(9, policy, 22)
		base.Trace = randomTrace(peakPct, troughPct, noisePct, seed)
		base.Step = 2 * time.Minute
		base.JobStream = stream
		base.Seed = seed

		// Ragged chunk schedule from the fuzzed bytes: 1..17 ticks per
		// call, cycling. Always includes tick-by-tick via the separate
		// {1} schedule below.
		ragged := []int{int(c1%17) + 1, int(c2%17) + 1, int(c3%17) + 1}

		for _, workers := range []int{1, 2, 8} {
			cfg := base
			cfg.PhysicsWorkers = workers
			ref, err := Run(instrumented(cfg))
			if err != nil {
				t.Logf("workers=%d run: %v", workers, err)
				return false
			}
			for _, chunks := range [][]int{{1}, ragged} {
				got := stepSession(t, instrumented(cfg), chunks)
				if d := identicalOutcome(ref, got); d != "" {
					t.Logf("workers=%d chunks=%v: %s", workers, chunks, d)
					return false
				}
			}
		}
		return true
	}
	n := 6
	if testing.Short() {
		n = 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// The hot-group series, which only the grouping policies record,
// carry the same guarantee.
func TestSessionSteppedHotGroupBitIdentical(t *testing.T) {
	cfg := Scenario(8, PolicyVMTPreserve, 24)
	cfg.Trace = smallTrace()
	cfg.Step = 2 * time.Minute
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.HotGroupTempC == nil || ref.HotGroupSize == nil {
		t.Fatal("a grouping policy recorded no hot-group series")
	}
	got := stepSession(t, cfg, []int{5, 1, 3})
	if d := identicalOutcome(ref, got); d != "" {
		t.Fatalf("stepped session diverged from Run: %s", d)
	}
}

// Source-driven sessions carry the determinism guarantee too: the
// generators are random-access (value at tick i is a pure function of
// seed and i), so chunking cannot perturb the arrival stream.
func TestSessionSteppedSourceBitIdentical(t *testing.T) {
	cfg := Scenario(6, PolicyVMTTA, 22)
	cfg.Step = 2 * time.Minute
	cfg.Horizon = 3 * time.Hour
	specs := map[string]*workload.SourceSpec{
		"poisson": {Kind: "poisson", Level: 0.5, Events: 40, Seed: 7},
		"bursty": {Kind: "bursty", Level: 0.3, BurstUtil: 0.85,
			BurstProb: 0.25, EpochMin: 12, Seed: 7},
		"flashcrowd": {Kind: "flashcrowd", Level: 0.35, SpikeUtil: 0.9,
			SpikeEveryMin: 45, SpikeDecayMin: 15, Seed: 7},
	}
	for _, kind := range []string{"poisson", "bursty", "flashcrowd"} {
		cfg.Source = specs[kind]
		ref, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got := stepSession(t, cfg, []int{7, 2})
		if d := identicalOutcome(ref, got); d != "" {
			t.Fatalf("%s: %s", kind, d)
		}
	}
}
