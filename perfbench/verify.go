package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"vmt"
	"vmt/internal/stats"
)

// outcome is everything one simulated run produced that the benchmark
// checks: the Result series and totals, and for the live workload the
// size and CRC-32C of the window stream and fleet log it wrote.
type outcome struct {
	cooling, power, air, melt, wax, maxCPU, hotTemp, hotSize []float64
	throttle                                                 int
	arrivals, drops, crashes, repairs, evacuated, lost       uint64
	trips, quarantined                                       uint64
	streamBytes, fleetBytes                                  int64
	streamCRC, fleetCRC                                      uint32
}

func values(s *stats.Series) []float64 {
	if s == nil {
		return nil
	}
	return s.Values
}

func resultOutcome(r *vmt.Result, obs *observers) outcome {
	o := outcome{
		cooling:     values(r.CoolingLoadW),
		power:       values(r.TotalPowerW),
		air:         values(r.MeanAirTempC),
		melt:        values(r.MeanMeltFrac),
		wax:         values(r.WaxEnergyJ),
		maxCPU:      values(r.MaxCPUTempC),
		hotTemp:     values(r.HotGroupTempC),
		hotSize:     values(r.HotGroupSize),
		throttle:    r.ThrottleMinutes,
		arrivals:    r.TaskArrivals,
		drops:       r.TaskDrops,
		crashes:     r.FaultCrashes,
		repairs:     r.FaultRepairs,
		evacuated:   r.EvacuatedJobs,
		lost:        r.LostJobs,
		trips:       r.DomainTrips,
		quarantined: r.ReportsQuarantined,
	}
	obs.stamp(&o)
	return o
}

// fingerprint hashes every field of o bit for bit (FNV-1a 64 over
// Float64bits), in a fixed order.
func (o *outcome) fingerprint() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range [][]float64{o.cooling, o.power, o.air, o.melt, o.wax, o.maxCPU, o.hotTemp, o.hotSize} {
		put(uint64(len(s)))
		for _, v := range s {
			put(math.Float64bits(v))
		}
	}
	for _, v := range []uint64{uint64(o.throttle), o.arrivals, o.drops, o.crashes, o.repairs, o.evacuated, o.lost,
		o.trips, o.quarantined, uint64(o.streamBytes), uint64(o.fleetBytes), uint64(o.streamCRC), uint64(o.fleetCRC)} {
		put(v)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// firstDivergence compares the replica's per-tick CoolingLoadW,
// TotalPowerW and MeanMeltFrac with the Session run's, bit for bit, and
// then the whole fingerprint. It returns "" when they are identical.
func firstDivergence(session, replica *outcome) string {
	series := []struct {
		name string
		a, b []float64
	}{
		{"CoolingLoadW", session.cooling, replica.cooling},
		{"TotalPowerW", session.power, replica.power},
		{"MeanMeltFrac", session.melt, replica.melt},
	}
	n := len(session.cooling)
	if len(replica.cooling) != n {
		return fmt.Sprintf("replica ran %d ticks, session %d", len(replica.cooling), n)
	}
	for i := 0; i < n; i++ {
		for _, s := range series {
			if math.Float64bits(s.a[i]) != math.Float64bits(s.b[i]) {
				return fmt.Sprintf("tick %d: %s session %v replica %v", i+1, s.name, s.a[i], s.b[i])
			}
		}
	}
	if a, b := session.fingerprint(), replica.fingerprint(); a != b {
		return fmt.Sprintf("per-tick cooling/power/melt agree but fingerprints differ (session %s, replica %s)", a, b)
	}
	return ""
}

// sane checks the physical invariants every run must satisfy, whatever
// the seed: a full trace of finite samples, positive cooling load, melt
// fractions in [0,1], and task drops bounded by arrivals.
func (o *outcome) sane() error {
	if len(o.cooling) != ticksPerRun {
		return fmt.Errorf("%d samples, want %d", len(o.cooling), ticksPerRun)
	}
	for i := range o.cooling {
		for _, v := range []float64{o.cooling[i], o.power[i], o.air[i], o.melt[i], o.wax[i], o.maxCPU[i]} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("tick %d: non-finite sample", i+1)
			}
		}
		if o.cooling[i] <= 0 || o.power[i] <= 0 {
			return fmt.Errorf("tick %d: non-positive cooling %v or power %v", i+1, o.cooling[i], o.power[i])
		}
		if o.melt[i] < 0 || o.melt[i] > 1 {
			return fmt.Errorf("tick %d: mean melt fraction %v outside [0,1]", i+1, o.melt[i])
		}
	}
	if o.drops > o.arrivals {
		return fmt.Errorf("%d task drops exceed %d arrivals", o.drops, o.arrivals)
	}
	return nil
}

// peak returns the largest cooling-load sample.
func (o *outcome) peak() float64 {
	p := math.Inf(-1)
	for _, v := range o.cooling {
		p = math.Max(p, v)
	}
	return p
}

//go:embed fingerprints.json
var pinnedJSON []byte

// pinned maps workload → seed → the fingerprints of one operation's
// runs, in run order. Regenerate with -pin after a change that is meant
// to change results.
type pinned map[string]map[string][]string

func loadPinned() (pinned, error) {
	p := pinned{}
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return p, nil
}

// check compares an operation's fingerprints with the pinned ones for
// its seed; ok is false when the seed has none pinned.
func (p pinned) check(name string, seed uint64, got []string) (ok bool, err error) {
	want, found := p[name][strconv.FormatUint(seed, 10)]
	if !found {
		return false, nil
	}
	if len(want) != len(got) {
		return true, fmt.Errorf("%d runs, %d pinned", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return true, fmt.Errorf("run %d fingerprint %s, pinned %s", i, got[i], want[i])
		}
	}
	return true, nil
}
