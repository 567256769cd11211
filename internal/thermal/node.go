package thermal

import (
	"fmt"
	"math"
	"time"

	"vmt/internal/pcm"
)

// Node is the thermal state of one server: the air/chassis node plus
// the wax pack. Step advances the coupled system under a given power
// draw and reports the cooling load ejected to the room.
type Node struct {
	spec   ServerSpec
	inletC float64
	airC   float64
	pack   *pcm.Pack
	// cAirJPerK caches spec.AirHeatCapacityJPerK(): the spec is
	// immutable after construction and the method (with its value
	// receiver copy) would otherwise run once per Step call.
	// invCAirPerJK is its reciprocal, so the substep loop multiplies
	// instead of divides.
	cAirJPerK    float64
	invCAirPerJK float64
	// curve caches the pack's enthalpy-curve segment parameters so the
	// substep loop can inline the temperature projection (the same
	// switch commitWax and the fleet kernels use) instead of calling
	// through the pack.
	curve pcm.CurveParams
	// cumulative energy accounting, used by conservation tests and
	// the cooling metrics
	inputJ  float64
	ejectJ  float64
	storedJ float64

	// Step-transition memo. The substep loop is a pure function of
	// (air temperature, wax enthalpy, power, dt) — plus the inlet and
	// spec, which are fixed between SetInletTempC calls — so a step
	// whose pre-state and inputs exactly match a memoized transition
	// replays the memoized outcome bit-identically without
	// integrating. Two slots (round-robin) cover both a true
	// floating-point fixed point and the period-2 last-ulp limit
	// cycles a settled air node falls into; long stretches of steady
	// load (cold-group servers over a diurnal trace) then cost a few
	// additions per tick. SetInletTempC invalidates the memo.
	memo     [2]stepMemo
	memoNext int
}

// stepMemo is one recorded step transition (see Node.memo). Keys are
// stored as raw IEEE-754 bit patterns and matched with integer
// equality: a memo hit must mean "the loop would recompute exactly
// this state", and bit equality is that predicate stated directly —
// no float comparison, no tolerance, nothing for the floateq analyzer
// to flag. (Bit matching is stricter than float == only at ±0, where
// a miss merely recomputes the identical result.) valid is the
// explicit unset marker; a zero-valued slot is never consulted.
type stepMemo struct {
	valid    bool
	airBits  uint64
	waxHBits uint64
	powBits  uint64
	dt       time.Duration
	postAirC float64
	postWaxH float64
	res      StepResult
	ejectJ   float64
	storedJ  float64
	inputJ   float64
}

// NewNode builds a node at thermal equilibrium with its inlet air: the
// air node and wax both start at inletC (fully solid wax, assuming the
// inlet is below the melting point, as in every scenario of the
// paper).
func NewNode(spec ServerSpec, mat pcm.Material, inletC float64) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pack, err := pcm.NewPack(mat, spec.WaxVolumeL, inletC)
	if err != nil {
		return nil, err
	}
	curve, err := pcm.CurveParamsFor(mat, spec.WaxVolumeL)
	if err != nil {
		return nil, err
	}
	cAir := spec.AirHeatCapacityJPerK()
	return &Node{
		spec:         spec,
		inletC:       inletC,
		airC:         inletC,
		pack:         pack,
		curve:        curve,
		cAirJPerK:    cAir,
		invCAirPerJK: 1 / cAir,
	}, nil
}

// Spec returns the node's server specification.
func (n *Node) Spec() ServerSpec { return n.spec }

// InletTempC returns the configured inlet temperature.
func (n *Node) InletTempC() float64 { return n.inletC }

// SetInletTempC overrides the inlet temperature (used by the inlet
// variation experiments, Figures 19–20).
func (n *Node) SetInletTempC(c float64) {
	n.inletC = c
	n.memo[0].valid = false
	n.memo[1].valid = false
}

// AirTempC returns the current air temperature at the wax.
func (n *Node) AirTempC() float64 { return n.airC }

// WaxTempC returns the current wax temperature.
func (n *Node) WaxTempC() float64 { return n.pack.TempC() }

// MeltFrac returns the wax melt fraction in [0,1].
func (n *Node) MeltFrac() float64 { return n.pack.MeltFrac() }

// Pack exposes the wax pack (read-mostly; used by reporting).
func (n *Node) Pack() *pcm.Pack { return n.pack }

// StepResult reports the outcome of one Step.
type StepResult struct {
	// AirTempC and WaxTempC are the post-step temperatures.
	AirTempC, WaxTempC float64
	// MeltFrac is the post-step wax melt fraction.
	MeltFrac float64
	// CoolingLoadW is the mean heat flow ejected to the room over the
	// step: the quantity the datacenter cooling system must remove.
	CoolingLoadW float64
	// WaxFlowW is the mean heat flow into the wax over the step
	// (negative while the wax releases stored heat).
	WaxFlowW float64
}

// Step advances the node by dt under a constant power draw powerW.
// The step is internally subdivided per the spec's SubStep; each
// substep conserves energy exactly:
//
//	P·dt = CAir·ΔTair + KAir·(Tair−Tin)·dt + HWax·(Tair−Twax)·dt
//
// Step is the scalar oracle the fleet kernel (StepRange's lane body,
// stepLanes) must reproduce bit for bit; the kernelparity analyzer
// verifies its substep bodies against the regions marked below.
//
//vmt:hotpath
func (n *Node) Step(powerW float64, dt time.Duration) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("thermal: non-positive step %v", dt) //vmtlint:allow hotpath error path, off the steady-state path
	}
	if powerW < 0 {
		return StepResult{}, fmt.Errorf("thermal: negative power %v", powerW) //vmtlint:allow hotpath error path, off the steady-state path
	}
	pack := n.pack
	waxH, waxT := pack.IntegratorState()
	airC0, waxH0 := n.airC, waxH
	airBits0 := math.Float64bits(airC0)
	waxHBits0 := math.Float64bits(waxH0)
	powBits := math.Float64bits(powerW)
	for i := range n.memo {
		m := &n.memo[i]
		if m.valid && m.airBits == airBits0 && m.waxHBits == waxHBits0 &&
			m.powBits == powBits && m.dt == dt {
			// Exact pre-state and inputs: the full loop would recompute
			// exactly the memoized outcome.
			n.airC = m.postAirC
			pack.SetEnthalpyJ(m.postWaxH)
			n.inputJ += m.inputJ
			n.ejectJ += m.ejectJ
			n.storedJ += m.storedJ
			return m.res, nil
		}
	}
	// Invariant quantities are hoisted out of the substep loop and the
	// wax pack is advanced on locals (enthalpy plus its temperature
	// projection), committed once after the loop; the per-substep
	// arithmetic (and therefore every float result) is unchanged from
	// the straightforward form it replaces.
	var ejected, stored float64
	invCAir := n.invCAirPerJK
	kAir := n.spec.AirConductanceWPerK
	hWax := n.spec.WaxConductanceWPerK
	inlet := n.inletC
	airC := airC0
	sub := n.spec.SubStep
	subSec := sub.Seconds()
	mC := n.curve.MeltC
	hLo := n.curve.HMeltLoJ
	hHi := n.curve.HMeltHiJ
	invSol := n.curve.InvCapSolidJPerK
	invLiq := n.curve.InvCapLiquidJPerK
	// Counted loop over the full substeps plus one explicit trailing
	// partial: the same sequence of substep lengths the countdown form
	// produced, without per-iteration duration bookkeeping.
	nFull := int(dt / sub)
	partial := dt - time.Duration(nFull)*sub
	for i := 0; i < nFull; i++ {
		//vmt:kernel substep oracle begin
		toRoom := kAir * (airC - inlet)
		toWax := hWax * (airC - waxT)
		airC += subSec * (powerW - toRoom - toWax) * invCAir
		waxH += toWax * subSec
		// pcm's curve.tempAt, inlined on the hoisted segment parameters.
		switch {
		case waxH < hLo:
			waxT = waxH * invSol
		case waxH >= hHi:
			waxT = mC + (waxH-hHi)*invLiq
		default:
			waxT = mC
		}
		ejected += toRoom * subSec
		stored += toWax * subSec
		//vmt:kernel end
	}
	if partial > 0 {
		sec := partial.Seconds()
		//vmt:kernel substep-tail oracle begin
		toRoom := kAir * (airC - inlet)
		toWax := hWax * (airC - waxT)
		airC += sec * (powerW - toRoom - toWax) * invCAir
		waxH += toWax * sec
		ejected += toRoom * sec
		stored += toWax * sec
		//vmt:kernel end
	}
	pack.SetEnthalpyJ(waxH)
	n.airC = airC
	sec := dt.Seconds()
	inputJ := powerW * sec
	n.inputJ += inputJ
	n.ejectJ += ejected
	n.storedJ += stored
	res := StepResult{
		AirTempC:     n.airC,
		WaxTempC:     n.pack.TempC(),
		MeltFrac:     n.pack.MeltFrac(),
		CoolingLoadW: ejected / sec,
		WaxFlowW:     stored / sec,
	}
	// Memoize only transitions whose wax enthalpy stayed put: while the
	// wax is actively charging or discharging the pre-state can never
	// recur, so recording those steps would pay the copy for no future
	// hit. A stationary wax (enthalpy bit pattern unchanged) covers
	// both the true fixed point and the last-ulp air limit cycles.
	if math.Float64bits(waxH) == waxHBits0 {
		m := &n.memo[n.memoNext]
		m.valid = true
		m.airBits = airBits0
		m.waxHBits = waxHBits0
		m.powBits = powBits
		m.dt = dt
		m.postAirC = airC
		m.postWaxH = waxH
		m.res = res
		m.ejectJ = ejected
		m.storedJ = stored
		m.inputJ = inputJ
		n.memoNext = 1 - n.memoNext
	}
	return res, nil
}

// EnergyLedger reports cumulative energy totals since construction.
type EnergyLedger struct {
	InputJ, EjectedJ, WaxStoredJ float64
}

// Ledger returns the node's cumulative energy accounting.
func (n *Node) Ledger() EnergyLedger {
	return EnergyLedger{InputJ: n.inputJ, EjectedJ: n.ejectJ, WaxStoredJ: n.storedJ}
}

// AirEnergyJ returns the energy held by the air node relative to the
// inlet temperature — the remainder term in the conservation balance.
func (n *Node) AirEnergyJ() float64 {
	return n.cAirJPerK * (n.airC - n.inletC)
}
