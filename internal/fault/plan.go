// Package fault injects deterministic failures into a simulation run:
// server crashes and repairs (scheduled or stochastic, optionally
// Arrhenius-coupled to per-server temperature), melt-estimator sensor
// faults (stuck-at, drift, gaussian noise, dropout windows), correlated
// failure domains over a datacenter topology (PDU trips crashing a
// whole rack atomically, cooling-zone failures derating every server in
// the zone), and Byzantine report faults (servers lying about their
// utilization or melt state within plausible ranges).
//
// A Plan is JSON-round-trippable, like experiment.Spec, so fault
// scenarios live in spec files next to the sweep axes they perturb.
// All randomness flows through seeded internal/stats RNGs: the same
// seed and plan reproduce the same crash times, sensor noise, domain
// trips, and Byzantine lies bit-for-bit regardless of
// Config.PhysicsWorkers.
package fault

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"vmt/internal/jsonio"
	"vmt/internal/topology"
)

// Sensor fault kinds accepted by SensorFault.Kind.
const (
	KindStuck   = "stuck"   // estimator reads ValueC, ignoring the true temperature
	KindDrift   = "drift"   // reading drifts by DriftCPerHour from the window start
	KindNoise   = "noise"   // gaussian noise with StdevC added to the reading
	KindDropout = "dropout" // no reading at all; the estimate goes stale
)

// Domain fault modes accepted by DomainFault.Mode and
// StochasticDomains.Mode.
const (
	// ModeCrash takes every server in the domain down atomically (a
	// PDU trip). The empty mode defaults to crash.
	ModeCrash = "crash"
	// ModeDerate raises every domain server's inlet temperature by
	// DerateInletDeltaC for the window (a cooling-zone failure: the
	// CRAC loop loses capacity but the servers keep running).
	ModeDerate = "derate"
)

// Byzantine report channels accepted by ByzantineFault.Kind.
const (
	// ByzUtil perturbs the server's reported utilization — the
	// telemetry channel the defensive scheduler layer cross-checks
	// against power draw.
	ByzUtil = "util"
	// ByzMelt perturbs the server's reported melt fraction — the
	// channel VMT-WA's placement actually consumes.
	ByzMelt = "melt"
)

// MaxDerateDeltaC bounds a derate fault's inlet increase: a cooling
// failure can recirculate only so much exhaust heat before it is a
// full outage (use ModeCrash for that).
const MaxDerateDeltaC = 30

// Plan schedules every fault injected into one run. The zero value
// injects nothing. Seed drives stochastic crash draws and sensor
// noise; two runs with the same Config and Plan are bit-identical.
type Plan struct {
	// Seed seeds the fault RNG streams. Independent from Config.Seed
	// so the same fault scenario can be replayed over different
	// inlet-temperature draws.
	Seed uint64 `json:"seed,omitempty"`

	// Crashes are scheduled at fixed sim times.
	Crashes []Crash `json:"crashes,omitempty"`

	// Stochastic, when non-nil, draws additional crashes each tick.
	Stochastic *Stochastic `json:"stochastic,omitempty"`

	// Sensors are melt-estimator sensor faults.
	Sensors []SensorFault `json:"sensors,omitempty"`

	// Topology declares the rack/row/zone hierarchy the domain faults
	// reference. Required whenever Domains or StochasticDomains is
	// set; the concrete domain count depends on the cluster size, so
	// domain indexes are bounds-checked by ValidateFor.
	Topology *topology.Spec `json:"topology,omitempty"`

	// Domains are scheduled correlated failures: every server in the
	// named domain crashes (or derates) atomically, with one shared
	// repair window.
	Domains []DomainFault `json:"domains,omitempty"`

	// StochasticDomains, when non-nil, draws additional domain trips
	// each tick from a dedicated seeded RNG stream.
	StochasticDomains *StochasticDomains `json:"stochastic_domains,omitempty"`

	// Byzantine are lying-report faults: the targeted server's
	// scheduler-visible utilization or melt reports are biased and
	// jittered within plausible ranges while the window is active.
	Byzantine []ByzantineFault `json:"byzantine,omitempty"`
}

// DomainFault trips one failure domain at a fixed sim time. All member
// servers fail (or derate) on the same tick and repair on the same
// tick — the correlated-loss pattern independent per-server crash
// rates cannot produce.
type DomainFault struct {
	// Kind is the domain level: topology.DomainRack, DomainRow, or
	// DomainZone.
	Kind string `json:"kind"`

	// Index is the domain index at that level (rack 0 is servers
	// [0, servers_per_rack), and so on in ID order).
	Index int `json:"index"`

	// Mode is ModeCrash (default when empty) or ModeDerate.
	Mode string `json:"mode,omitempty"`

	// AtMin is the trip time in minutes from the start of the run; the
	// trip lands on the first fault tick at or after it.
	AtMin float64 `json:"at_min"`

	// RepairAfterMin is the shared downtime (or derate duration) in
	// minutes; 0 means the domain never recovers.
	RepairAfterMin float64 `json:"repair_after_min,omitempty"`

	// DerateInletDeltaC is the inlet temperature increase for
	// ModeDerate (required positive there, rejected for ModeCrash).
	DerateInletDeltaC float64 `json:"derate_inlet_delta_c,omitempty"`
}

// EffectiveMode resolves the empty default to ModeCrash.
func (d DomainFault) EffectiveMode() string {
	if d.Mode == "" {
		return ModeCrash
	}
	return d.Mode
}

// StochasticDomains draws whole-domain trips per tick from the seeded
// domain RNG stream: each currently healthy domain of the given kind
// trips with probability 1-exp(-rate×dt).
type StochasticDomains struct {
	// Kind is the domain level the draws target.
	Kind string `json:"kind"`

	// RatePerHour is the per-domain trip rate.
	RatePerHour float64 `json:"rate_per_hour"`

	// Mode is ModeCrash (default when empty) or ModeDerate.
	Mode string `json:"mode,omitempty"`

	// RepairAfterMin is the shared downtime per trip; 0 means tripped
	// domains stay down.
	RepairAfterMin float64 `json:"repair_after_min,omitempty"`

	// DerateInletDeltaC is the inlet increase for ModeDerate.
	DerateInletDeltaC float64 `json:"derate_inlet_delta_c,omitempty"`
}

// EffectiveMode resolves the empty default to ModeCrash.
func (s StochasticDomains) EffectiveMode() string {
	if s.Mode == "" {
		return ModeCrash
	}
	return s.Mode
}

// ByzantineFault makes one server lie on one report channel over a
// time window. The lie is reported = clamp(true + bias + jitter×N(0,1))
// into the channel's plausible range ([0,1] for both utilization and
// melt fraction), with the gaussian drawn once per tick from the
// server's dedicated Byzantine RNG stream — in-range values that a
// naive range check cannot catch, which is exactly what the defensive
// scheduler layer's cross-checks are for.
type ByzantineFault struct {
	// Server is the lying server's index.
	Server int `json:"server"`

	// Kind is the report channel: ByzUtil or ByzMelt.
	Kind string `json:"kind"`

	// StartMin and EndMin bound the window in minutes; EndMin 0 means
	// the lie persists to the end of the run.
	StartMin float64 `json:"start_min"`
	EndMin   float64 `json:"end_min,omitempty"`

	// Bias is the additive offset on the reported value, in the
	// channel's own unit (fractions for both channels), clamped to
	// [-1, 1] by validation.
	Bias float64 `json:"bias,omitempty"`

	// Jitter is the per-tick gaussian stdev added on top of the bias.
	Jitter float64 `json:"jitter,omitempty"`
}

// Crash takes one server down at a fixed sim time.
type Crash struct {
	// Server is the target server index.
	Server int `json:"server"`

	// AtMin is the crash time in minutes from the start of the run.
	// Faults are processed on scheduler-step boundaries: the crash
	// lands on the first fault tick at or after AtMin.
	AtMin float64 `json:"at_min"`

	// RepairAfterMin is the downtime in minutes; 0 means the server
	// is never repaired.
	RepairAfterMin float64 `json:"repair_after_min,omitempty"`
}

// Stochastic draws crashes per alive server per tick from the seeded
// fault RNG. Exactly one of RatePerHour > 0 or Arrhenius must be set.
type Stochastic struct {
	// RatePerHour is a flat per-server failure rate.
	RatePerHour float64 `json:"rate_per_hour,omitempty"`

	// Arrhenius couples the failure rate to each server's air
	// temperature via reliability.Model.FailureRatePerHour.
	Arrhenius bool `json:"arrhenius,omitempty"`

	// MTBFHours overrides the Arrhenius model's reference MTBF
	// (default reliability.PaperModel, 70 000 h at 30 °C).
	MTBFHours float64 `json:"mtbf_hours,omitempty"`

	// RepairAfterMin is the downtime for stochastic crashes; 0 means
	// crashed servers stay down.
	RepairAfterMin float64 `json:"repair_after_min,omitempty"`
}

// SensorFault perturbs one server's melt-estimator input over a time
// window. While a dropout window is active the estimator receives no
// reading at all and its estimate ages; the scheduler treats estimates
// older than core.DefaultMaxEstimateAge as stale.
type SensorFault struct {
	// Server is the target server index.
	Server int `json:"server"`

	// Kind is one of "stuck", "drift", "noise", "dropout".
	Kind string `json:"kind"`

	// StartMin and EndMin bound the window in minutes; EndMin 0 means
	// the fault persists to the end of the run.
	StartMin float64 `json:"start_min"`
	EndMin   float64 `json:"end_min,omitempty"`

	// ValueC is the stuck-at reading for "stuck".
	ValueC float64 `json:"value_c,omitempty"`

	// DriftCPerHour is the drift slope for "drift".
	DriftCPerHour float64 `json:"drift_c_per_hour,omitempty"`

	// StdevC is the noise magnitude for "noise".
	StdevC float64 `json:"stdev_c,omitempty"`
}

// Empty reports whether the plan injects nothing. A plan that only
// declares a topology is empty: geometry without faults changes no
// behavior.
func (p *Plan) Empty() bool {
	if p == nil {
		return true
	}
	return len(p.Crashes) == 0 && p.Stochastic == nil && len(p.Sensors) == 0 &&
		len(p.Domains) == 0 && p.StochasticDomains == nil && len(p.Byzantine) == 0
}

// HasDomainFaults reports whether the plan schedules or draws
// correlated domain failures.
func (p *Plan) HasDomainFaults() bool {
	if p == nil {
		return false
	}
	return len(p.Domains) > 0 || p.StochasticDomains != nil
}

// ParsePlan decodes and validates a plan from one JSON value
// (jsonio.Decode), so typos fail loudly instead of silently
// defaulting. Server and domain indexes still need ValidateFor once
// the cluster size is known.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := jsonio.Decode(bytes.NewReader(data), &p); err != nil {
		return nil, fmt.Errorf("fault: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks internal consistency: finite non-negative times and
// rates, known sensor kinds, no overlapping downtime or fault windows
// on the same server. Server indexes are bounds-checked separately by
// ValidateFor once the cluster size is known.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, c := range p.Crashes {
		if c.Server < 0 {
			return fmt.Errorf("fault: crash %d: negative server %d", i, c.Server)
		}
		if !finite(c.AtMin) || c.AtMin < 0 {
			return fmt.Errorf("fault: crash %d: at_min %v must be finite and >= 0", i, c.AtMin)
		}
		if !finite(c.RepairAfterMin) || c.RepairAfterMin < 0 {
			return fmt.Errorf("fault: crash %d: repair_after_min %v must be finite and >= 0 (repair cannot precede the crash)", i, c.RepairAfterMin)
		}
	}
	if err := p.validateCrashOverlap(); err != nil {
		return err
	}
	if s := p.Stochastic; s != nil {
		if !finite(s.RatePerHour) || s.RatePerHour < 0 {
			return fmt.Errorf("fault: stochastic rate_per_hour %v must be finite and >= 0", s.RatePerHour)
		}
		if !finite(s.MTBFHours) || s.MTBFHours < 0 {
			return fmt.Errorf("fault: stochastic mtbf_hours %v must be finite and >= 0", s.MTBFHours)
		}
		if !finite(s.RepairAfterMin) || s.RepairAfterMin < 0 {
			return fmt.Errorf("fault: stochastic repair_after_min %v must be finite and >= 0", s.RepairAfterMin)
		}
		hasRate := s.RatePerHour > 0
		if hasRate == s.Arrhenius {
			return fmt.Errorf("fault: stochastic needs exactly one of rate_per_hour > 0 or arrhenius")
		}
		if s.MTBFHours > 0 && !s.Arrhenius {
			return fmt.Errorf("fault: stochastic mtbf_hours requires arrhenius")
		}
	}
	for i, f := range p.Sensors {
		if f.Server < 0 {
			return fmt.Errorf("fault: sensor %d: negative server %d", i, f.Server)
		}
		switch f.Kind {
		case KindStuck, KindDrift, KindNoise, KindDropout:
		default:
			return fmt.Errorf("fault: sensor %d: unknown kind %q", i, f.Kind)
		}
		if !finite(f.StartMin) || f.StartMin < 0 {
			return fmt.Errorf("fault: sensor %d: start_min %v must be finite and >= 0", i, f.StartMin)
		}
		if !finite(f.EndMin) || f.EndMin < 0 {
			return fmt.Errorf("fault: sensor %d: end_min %v must be finite and >= 0", i, f.EndMin)
		}
		if f.EndMin > 0 && f.EndMin <= f.StartMin {
			return fmt.Errorf("fault: sensor %d: end_min %v must exceed start_min %v", i, f.EndMin, f.StartMin)
		}
		if !finite(f.ValueC) || !finite(f.DriftCPerHour) {
			return fmt.Errorf("fault: sensor %d: value_c and drift_c_per_hour must be finite", i)
		}
		if !finite(f.StdevC) || f.StdevC < 0 {
			return fmt.Errorf("fault: sensor %d: stdev_c %v must be finite and >= 0", i, f.StdevC)
		}
		if f.Kind == KindNoise && f.StdevC <= 0 {
			return fmt.Errorf("fault: sensor %d: noise needs stdev_c > 0", i)
		}
	}
	if err := p.validateSensorOverlap(); err != nil {
		return err
	}
	if err := p.validateDomains(); err != nil {
		return err
	}
	return p.validateByzantine()
}

// validateDomains checks the topology declaration and every domain
// fault's internal consistency, including non-overlapping trip windows
// on the same domain. Domain indexes are bounds-checked by ValidateFor
// once the cluster size (and so the domain count) is known.
func (p *Plan) validateDomains() error {
	if p.HasDomainFaults() && p.Topology == nil {
		return fmt.Errorf("fault: domain faults need a topology")
	}
	if err := p.Topology.Validate(); err != nil {
		return err
	}
	validateDomainMode := func(what, mode string, repairAfterMin, derateDeltaC float64) error {
		switch mode {
		case ModeCrash, ModeDerate:
		default:
			return fmt.Errorf("fault: %s: unknown mode %q (want %s or %s)", what, mode, ModeCrash, ModeDerate)
		}
		if !finite(repairAfterMin) || repairAfterMin < 0 {
			return fmt.Errorf("fault: %s: repair_after_min %v must be finite and >= 0", what, repairAfterMin)
		}
		if !finite(derateDeltaC) {
			return fmt.Errorf("fault: %s: derate_inlet_delta_c must be finite", what)
		}
		if mode == ModeDerate {
			if derateDeltaC <= 0 || derateDeltaC > MaxDerateDeltaC {
				return fmt.Errorf("fault: %s: derate needs derate_inlet_delta_c in (0, %d], got %v",
					what, MaxDerateDeltaC, derateDeltaC)
			}
		} else if derateDeltaC != 0 { //vmtlint:allow floateq zero-value "unset" sentinel, exact by construction
			return fmt.Errorf("fault: %s: derate_inlet_delta_c requires mode %q", what, ModeDerate)
		}
		return nil
	}
	for i, d := range p.Domains {
		what := fmt.Sprintf("domain %d", i)
		if !topology.KnownKind(d.Kind) {
			return fmt.Errorf("fault: %s: unknown domain kind %q", what, d.Kind)
		}
		if d.Index < 0 {
			return fmt.Errorf("fault: %s: negative index %d", what, d.Index)
		}
		if !finite(d.AtMin) || d.AtMin < 0 {
			return fmt.Errorf("fault: %s: at_min %v must be finite and >= 0", what, d.AtMin)
		}
		if err := validateDomainMode(what, d.EffectiveMode(), d.RepairAfterMin, d.DerateInletDeltaC); err != nil {
			return err
		}
	}
	if err := p.validateDomainOverlap(); err != nil {
		return err
	}
	if sd := p.StochasticDomains; sd != nil {
		if !topology.KnownKind(sd.Kind) {
			return fmt.Errorf("fault: stochastic_domains: unknown domain kind %q", sd.Kind)
		}
		if !finite(sd.RatePerHour) || sd.RatePerHour <= 0 {
			return fmt.Errorf("fault: stochastic_domains: rate_per_hour %v must be finite and > 0", sd.RatePerHour)
		}
		if err := validateDomainMode("stochastic_domains", sd.EffectiveMode(), sd.RepairAfterMin, sd.DerateInletDeltaC); err != nil {
			return err
		}
	}
	return nil
}

// validateDomainOverlap rejects scheduled trips whose windows overlap
// on the same (kind, index) domain: the injector cannot trip a domain
// that is already tripped, so an overlapping schedule is a spec
// mistake — the same contract validateCrashOverlap enforces per
// server.
func (p *Plan) validateDomainOverlap() error {
	byDomain := map[string][]DomainFault{}
	for _, d := range p.Domains {
		key := fmt.Sprintf("%s/%d", d.Kind, d.Index)
		byDomain[key] = append(byDomain[key], d)
	}
	keys := make([]string, 0, len(byDomain))
	for k := range byDomain { //vmtlint:allow maporder keys are sorted immediately below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ds := byDomain[k]
		sort.Slice(ds, func(i, j int) bool { return ds[i].AtMin < ds[j].AtMin })
		for i := 1; i < len(ds); i++ {
			prev := ds[i-1]
			if prev.RepairAfterMin <= 0 || ds[i].AtMin < prev.AtMin+prev.RepairAfterMin {
				return fmt.Errorf("fault: %s %d: trip at %v min overlaps window of trip at %v min",
					ds[i].Kind, ds[i].Index, ds[i].AtMin, prev.AtMin)
			}
		}
	}
	return nil
}

// validateByzantine checks the lying-report faults: known channels,
// plausible bias/jitter, and non-overlapping windows per (server,
// channel) so at most one lie governs a channel at any instant.
func (p *Plan) validateByzantine() error {
	for i, b := range p.Byzantine {
		if b.Server < 0 {
			return fmt.Errorf("fault: byzantine %d: negative server %d", i, b.Server)
		}
		switch b.Kind {
		case ByzUtil, ByzMelt:
		default:
			return fmt.Errorf("fault: byzantine %d: unknown kind %q (want %s or %s)", i, b.Kind, ByzUtil, ByzMelt)
		}
		if !finite(b.StartMin) || b.StartMin < 0 {
			return fmt.Errorf("fault: byzantine %d: start_min %v must be finite and >= 0", i, b.StartMin)
		}
		if !finite(b.EndMin) || b.EndMin < 0 {
			return fmt.Errorf("fault: byzantine %d: end_min %v must be finite and >= 0", i, b.EndMin)
		}
		if b.EndMin > 0 && b.EndMin <= b.StartMin {
			return fmt.Errorf("fault: byzantine %d: end_min %v must exceed start_min %v", i, b.EndMin, b.StartMin)
		}
		if !finite(b.Bias) || b.Bias < -1 || b.Bias > 1 {
			return fmt.Errorf("fault: byzantine %d: bias %v out of [-1, 1]", i, b.Bias)
		}
		if !finite(b.Jitter) || b.Jitter < 0 || b.Jitter > 1 {
			return fmt.Errorf("fault: byzantine %d: jitter %v out of [0, 1]", i, b.Jitter)
		}
		if b.Bias == 0 && b.Jitter == 0 { //vmtlint:allow floateq zero-value "no lie at all" rejection, exact by construction
			return fmt.Errorf("fault: byzantine %d: needs a non-zero bias or jitter", i)
		}
	}
	byChannel := map[string][]ByzantineFault{}
	for _, b := range p.Byzantine {
		key := fmt.Sprintf("%d/%s", b.Server, b.Kind)
		byChannel[key] = append(byChannel[key], b)
	}
	keys := make([]string, 0, len(byChannel))
	for k := range byChannel { //vmtlint:allow maporder keys are sorted immediately below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bs := byChannel[k]
		sort.Slice(bs, func(i, j int) bool { return bs[i].StartMin < bs[j].StartMin })
		for i := 1; i < len(bs); i++ {
			prev := bs[i-1]
			if prev.EndMin <= 0 || bs[i].StartMin < prev.EndMin {
				return fmt.Errorf("fault: server %d: byzantine %s window starting %v min overlaps window starting %v min",
					bs[i].Server, bs[i].Kind, bs[i].StartMin, prev.StartMin)
			}
		}
	}
	return nil
}

// ValidateFor runs Validate and bounds-checks server and domain
// references against the cluster size: flat server indexes must fall
// inside the fleet, domain indexes inside the domain count the
// topology spans at that size, and scheduled domain-crash windows must
// not overlap a member server's own scheduled downtime (the injector
// cannot crash a server twice, so the combined schedule is a spec
// mistake).
func (p *Plan) ValidateFor(numServers int) error {
	if p == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	for i, c := range p.Crashes {
		if c.Server >= numServers {
			return fmt.Errorf("fault: crash %d: server %d out of range (cluster has %d)", i, c.Server, numServers)
		}
	}
	for i, f := range p.Sensors {
		if f.Server >= numServers {
			return fmt.Errorf("fault: sensor %d: server %d out of range (cluster has %d)", i, f.Server, numServers)
		}
	}
	for i, b := range p.Byzantine {
		if b.Server >= numServers {
			return fmt.Errorf("fault: byzantine %d: server %d out of range (cluster has %d)", i, b.Server, numServers)
		}
	}
	if p.Topology == nil {
		return nil
	}
	topo, err := topology.Build(*p.Topology, numServers)
	if err != nil {
		return err
	}
	for i, d := range p.Domains {
		count, err := topo.DomainCount(d.Kind)
		if err != nil {
			return fmt.Errorf("fault: domain %d: %w", i, err)
		}
		if d.Index >= count {
			return fmt.Errorf("fault: domain %d: %s %d out of range (cluster of %d has %d)",
				i, d.Kind, d.Index, numServers, count)
		}
		if d.EffectiveMode() != ModeCrash {
			continue
		}
		lo, hi, err := topo.DomainRange(d.Kind, d.Index)
		if err != nil {
			return fmt.Errorf("fault: domain %d: %w", i, err)
		}
		for j, c := range p.Crashes {
			if c.Server < lo || c.Server >= hi {
				continue
			}
			if windowsOverlap(d.AtMin, d.RepairAfterMin, c.AtMin, c.RepairAfterMin) {
				return fmt.Errorf("fault: domain %d (%s %d) downtime overlaps crash %d on member server %d",
					i, d.Kind, d.Index, j, c.Server)
			}
		}
	}
	return nil
}

// windowsOverlap reports whether two downtime windows [at, at+repair)
// intersect; a zero repair means the window never closes.
func windowsOverlap(at1, repair1, at2, repair2 float64) bool {
	if repair1 > 0 && at1+repair1 <= at2 {
		return false
	}
	if repair2 > 0 && at2+repair2 <= at1 {
		return false
	}
	return true
}

// validateCrashOverlap rejects scheduled downtimes that overlap on
// the same server: the injector cannot crash a server that is already
// down, so an overlapping schedule is a spec mistake.
func (p *Plan) validateCrashOverlap() error {
	byServer := map[int][]Crash{}
	for _, c := range p.Crashes {
		byServer[c.Server] = append(byServer[c.Server], c)
	}
	servers := make([]int, 0, len(byServer))
	for s := range byServer { //vmtlint:allow maporder keys are sorted immediately below
		servers = append(servers, s)
	}
	sort.Ints(servers)
	for _, s := range servers {
		cs := byServer[s]
		sort.Slice(cs, func(i, j int) bool { return cs[i].AtMin < cs[j].AtMin })
		for i := 1; i < len(cs); i++ {
			prev := cs[i-1]
			if prev.RepairAfterMin <= 0 || cs[i].AtMin < prev.AtMin+prev.RepairAfterMin {
				return fmt.Errorf("fault: server %d: crash at %v min overlaps downtime of crash at %v min", s, cs[i].AtMin, prev.AtMin)
			}
		}
	}
	return nil
}

// validateSensorOverlap rejects overlapping fault windows on the same
// server so at most one sensor fault is active at any instant.
func (p *Plan) validateSensorOverlap() error {
	byServer := map[int][]SensorFault{}
	for _, f := range p.Sensors {
		byServer[f.Server] = append(byServer[f.Server], f)
	}
	servers := make([]int, 0, len(byServer))
	for s := range byServer { //vmtlint:allow maporder keys are sorted immediately below
		servers = append(servers, s)
	}
	sort.Ints(servers)
	for _, s := range servers {
		fs := byServer[s]
		sort.Slice(fs, func(i, j int) bool { return fs[i].StartMin < fs[j].StartMin })
		for i := 1; i < len(fs); i++ {
			prev := fs[i-1]
			if prev.EndMin <= 0 || fs[i].StartMin < prev.EndMin {
				return fmt.Errorf("fault: server %d: sensor fault window starting %v min overlaps window starting %v min", s, fs[i].StartMin, prev.StartMin)
			}
		}
	}
	return nil
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
