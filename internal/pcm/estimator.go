package pcm

import (
	"fmt"
	"sync"
	"time"
)

// Estimator is the lightweight per-server wax-state model of ref [24]:
// a single temperature sensor on the wax container tells the server
// when melting or freezing starts, and a lookup table maps the sensed
// air-to-wax temperature difference to a heat-flow rate, which the
// server integrates into an estimated melt fraction. The cluster
// scheduler (VMT-WA) consumes these estimates — not ground truth —
// once per minute.
//
// The lookup table quantizes the temperature difference, so the
// estimate drifts slightly from the true pack state; tests bound that
// drift. The update runs in constant time, cheap enough for a cluster
// whose scheduler reads the estimates to run it once per minute on
// every server, as the paper requires. A cluster whose scheduler,
// guard and fault injector never read them (fault-free VMT-TA and the
// baselines) runs none; see cluster.Cluster.EnableEstimates.
type Estimator struct {
	// shadow is held by value so a fleet of estimators stored in a
	// dense slice is fully contiguous — the estimator pass of a cluster
	// tick then streams memory instead of chasing per-server pointers.
	shadow Pack
	// table[i] is the estimated heat flow (W) for the i-th
	// temperature-difference bucket.
	table        []float64
	minDeltaC    float64
	bucketWidthC float64
	// invBucketWidthC is 1/bucketWidthC: the per-substep bucket index
	// is a multiply instead of a divide on the hottest loop in the
	// simulator.
	invBucketWidthC float64
	updates         uint64

	// sensor, when non-nil, interposes on the sensed air temperature
	// (fault injection). at accumulates sim time across Updates so the
	// sensor can evaluate time-windowed faults; stale accumulates time
	// since the last successful reading.
	sensor Sensor
	at     time.Duration
	stale  time.Duration
}

// Sensor models the physical temperature sensor feeding the estimator.
// Sense maps the true air temperature at the wax to the sensed reading
// at sim time at; ok=false means no reading was produced (dropout or
// dead sensor) and the estimate ages unchanged.
type Sensor interface {
	Sense(trueC float64, at time.Duration) (sensedC float64, ok bool)
}

// NewEstimator builds an estimator for a pack of volumeL liters of m
// starting at initialTempC, exchanging heat with the air stream through
// conductance hAWPerK (W/K). The lookup table covers temperature
// differences of ±40 °C in 0.1 °C buckets and is shared by every
// estimator with the same conductance (see tableFor).
func NewEstimator(m Material, volumeL, initialTempC, hAWPerK float64) (*Estimator, error) {
	e := new(Estimator)
	if err := InitEstimator(e, m, volumeL, initialTempC, hAWPerK); err != nil {
		return nil, err
	}
	return e, nil
}

// InitEstimator initializes dst in place — the allocation-free
// companion of NewEstimator for callers that keep estimators in dense
// slices. Any previous state of dst is overwritten.
func InitEstimator(dst *Estimator, m Material, volumeL, initialTempC, hAWPerK float64) error {
	if hAWPerK <= 0 {
		return fmt.Errorf("pcm: estimator conductance must be positive, got %v", hAWPerK)
	}
	*dst = Estimator{
		table:           tableFor(hAWPerK),
		minDeltaC:       tableMinDeltaC,
		bucketWidthC:    tableBucketWidthC,
		invBucketWidthC: 1 / tableBucketWidthC,
	}
	return InitPack(&dst.shadow, m, volumeL, initialTempC)
}

// The lookup table covers temperature differences of ±40 °C in 0.1 °C
// buckets. Buckets are centered on grid points (…, −0.5, 0, +0.5, …)
// so a zero temperature difference maps to exactly zero heat flow; a
// midpoint-offset table would leak heat at equilibrium.
const (
	tableMinDeltaC    = -40.0
	tableMaxDeltaC    = 40.0
	tableBucketWidthC = 0.1
)

// tableKey identifies a cached estimator table. Like curveKey, the
// float field is used only for identity (struct map key, never ranged
// or compared with a tolerance) — the floatkey analyzer's documented
// struct-identity exemption.
type tableKey struct {
	hAWPerK float64
}

var (
	tableMu    sync.Mutex
	tableCache = map[tableKey][]float64{}
)

// tableFor returns the shared lookup table for conductance hAWPerK,
// building it on first use. Tables are immutable after construction
// and their values depend only on hAWPerK and the bucket constants, so
// sharing one slice across every estimator of a fleet is safe and
// saves ~6.4 KB per server — the difference between megabytes and
// gigabytes at a million servers. Bounded like the curve cache: fuzzed
// or swept conductances must not grow it without limit.
func tableFor(hAWPerK float64) []float64 {
	key := tableKey{hAWPerK: hAWPerK}
	tableMu.Lock()
	defer tableMu.Unlock()
	if t, ok := tableCache[key]; ok {
		return t
	}
	if len(tableCache) >= 256 {
		tableCache = map[tableKey][]float64{}
	}
	n := int((tableMaxDeltaC-tableMinDeltaC)/tableBucketWidthC) + 1
	table := make([]float64, n)
	for i := range table {
		table[i] = hAWPerK * (tableMinDeltaC + float64(i)*tableBucketWidthC)
	}
	tableCache[key] = table
	return table
}

// lookup returns the tabulated heat flow for the given temperature
// difference, rounding to the nearest bucket center and clamping
// out-of-range differences to the table edges.
//
//vmt:hotpath
func (e *Estimator) lookup(deltaC float64) float64 {
	i := int((deltaC-e.minDeltaC)*e.invBucketWidthC + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= len(e.table) {
		i = len(e.table) - 1
	}
	return e.table[i]
}

// Update advances the estimate by dt given the sensed air temperature
// at the wax. Call once per model period (the paper uses one minute).
// The update subdivides internally so the shadow state stays stable
// even though the wax time constant is shorter than the period.
//
//vmt:hotpath
func (e *Estimator) Update(airTempC float64, dt time.Duration) {
	const subStep = 10 * time.Second
	if e.sensor != nil {
		e.at += dt
		sensed, ok := e.sensor.Sense(airTempC, e.at)
		if !ok {
			// No reading: the estimate ages in place. updates still
			// counts so overhead accounting stays comparable.
			e.stale += dt
			e.updates++
			return
		}
		e.stale = 0
		airTempC = sensed
	}
	// This is the hottest loop in a whole-cluster run (every server,
	// every substep, every tick), so the shadow state is advanced on
	// locals: the enthalpy integrates directly and only the
	// temperature is projected per substep — the melt fraction is
	// needed once, at the end. Full substeps share one precomputed
	// duration-in-seconds; only a trailing partial substep pays the
	// conversion.
	subSec := subStep.Seconds()
	sh := &e.shadow
	cv := sh.cv
	h := sh.hJ
	t := sh.tempC
	// Settled-shadow fast path. If the cached temperature is the exact
	// projection of the enthalpy (true after any Update; only Reset
	// pins it verbatim) and the first substep's energy increment rounds
	// to zero against h, every substep is the identity — the loop would
	// leave h and t bit-identical — so the whole update is skipped.
	// This is the steady state of a settled cluster: the temperature
	// difference sits inside the zero-flow bucket (or the tabulated
	// flow is below h's rounding granularity) even as the sensed air
	// temperature jitters by ulps tick to tick.
	//vmtlint:allow floateq bit-exact fixed-point test: the fast path may fire only when the loop would be the identity
	if cv.tempAt(h) == t && h+e.lookup(airTempC-t)*subSec == h {
		e.updates++
		return
	}
	remaining := dt
	for ; remaining >= subStep; remaining -= subStep {
		h += e.lookup(airTempC-t) * subSec
		t = cv.tempAt(h)
	}
	if remaining > 0 {
		h += e.lookup(airTempC-t) * remaining.Seconds()
	}
	sh.hJ = h
	sh.tempC, sh.meltFrac = cv.state(h)
	e.updates++
}

// MeltFrac returns the estimated melted fraction in [0,1].
func (e *Estimator) MeltFrac() float64 { return e.shadow.MeltFrac() }

// TempC returns the estimated wax temperature.
func (e *Estimator) TempC() float64 { return e.shadow.TempC() }

// Updates returns how many times Update has run (for overhead
// accounting in tests).
func (e *Estimator) Updates() uint64 { return e.updates }

// SetSensor interposes s on the estimator's temperature input. A nil
// sensor restores direct (faultless) readings.
func (e *Estimator) SetSensor(s Sensor) { e.sensor = s }

// StaleFor returns how long the estimator has gone without a
// successful sensor reading. Always zero without a sensor installed.
func (e *Estimator) StaleFor() time.Duration { return e.stale }

// Reset re-initializes the estimate, e.g. after a server rotates
// between groups and its wax is known to have refrozen, or a repaired
// server boots with a cold estimator. The reading history is
// considered fresh again.
func (e *Estimator) Reset(tempC float64) {
	e.shadow.Reset(tempC)
	e.stale = 0
}
