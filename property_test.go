package vmt

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// identicalOutcome reports the first divergence between two results'
// outcomes, or "" if they match bit for bit. It compares their JSON
// form field by field with the Config echo cleared, so every series,
// counter and grid takes part: encoding/json writes each float in the
// shortest form that parses back to the same bits, so equal bytes mean
// equal bits. A result that cannot be encoded (a NaN sample) is a
// divergence, never a match.
func identicalOutcome(a, b *Result) string {
	fields := func(r *Result) (map[string]json.RawMessage, error) {
		out := *r
		out.Config = Config{}
		buf, err := json.Marshal(&out)
		if err != nil {
			return nil, err
		}
		var m map[string]json.RawMessage
		return m, json.Unmarshal(buf, &m)
	}
	x, err := fields(a)
	if err != nil {
		return "encoding the first result: " + err.Error()
	}
	y, err := fields(b)
	if err != nil {
		return "encoding the second result: " + err.Error()
	}
	names := make([]string, 0, len(x)+len(y))
	for name := range x {
		names = append(names, name)
	}
	for name := range y {
		if _, ok := x[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if !bytes.Equal(x[name], y[name]) {
			return name + ": diverged"
		}
	}
	return ""
}

// Physics parallelism must be invisible in the results: any
// PhysicsWorkers value produces bit-identical series, because the
// per-server updates are independent and the reduction runs in fixed
// ID order regardless of which goroutine computed each server.
func TestPhysicsWorkersBitIdenticalProperty(t *testing.T) {
	f := func(peakPct, troughPct, noisePct uint8, seed uint64, wa, stream bool) bool {
		policy := PolicyVMTTA
		if wa {
			policy = PolicyVMTWA
		}
		base := Scenario(9, policy, 22)
		base.Trace = randomTrace(peakPct, troughPct, noisePct, seed)
		base.Step = 2 * time.Minute
		base.JobStream = stream
		base.Seed = seed

		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := base
			cfg.PhysicsWorkers = workers
			res, err := Run(cfg)
			if err != nil {
				t.Logf("workers=%d: %v", workers, err)
				return false
			}
			if ref == nil {
				ref = res
				continue
			}
			if d := identicalOutcome(ref, res); d != "" {
				t.Logf("workers=%d vs 1: %s", workers, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Batch parallelism must be equally invisible: RunMany with any worker
// bound reproduces the sequential results run for run.
func TestRunManyWorkerBoundsBitIdentical(t *testing.T) {
	var cfgs []Config
	for i, policy := range []Policy{PolicyRoundRobin, PolicyVMTTA, PolicyVMTWA, PolicyVMTTA} {
		cfg := Scenario(6, policy, 20+2*float64(i))
		cfg.Trace = randomTrace(uint8(40*i), 20, 3, uint64(i+1))
		cfg.Step = 2 * time.Minute
		cfgs = append(cfgs, cfg)
	}
	ref, err := RunManyN(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 100} {
		got, err := RunManyN(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cfgs {
			if d := identicalOutcome(ref[i], got[i]); d != "" {
				t.Fatalf("workers=%d, cfg %d: %s", workers, i, d)
			}
		}
	}
}
