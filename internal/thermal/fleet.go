package thermal

import (
	"fmt"
	"math"
	"slices"
	"time"

	"vmt/internal/pcm"
)

// Fleet is the struct-of-arrays thermal state for a whole fleet of
// servers that share one spec and one material: every per-server
// scalar the integration kernel touches — temperature, enthalpy,
// inlet, energy ledgers, step-transition memos — lives in a flat
// parallel slice indexed by server ID, and the parameters the servers
// share (conductances, heat capacity, substep, enthalpy-curve
// segments) are stored once. One StepRange over a contiguous ID range
// walks those slices in order, so the hot loop streams through memory
// instead of chasing a *Server → *Node → *Pack pointer chain per
// server, and disjoint ranges can be advanced concurrently with no
// sharing at all.
//
// Fleet is the production implementation of the physics, and its one
// integration kernel is stepLanes' lane body; the scalar Node is
// retained, untouched, as the reference implementation. The two
// advance state with textually identical arithmetic (same
// expressions, same evaluation order), and the differential oracle
// test drives both over randomized fleets demanding bit-identical
// trajectories via math.Float64bits. Any intentional change to the
// kernel must be made to both in lockstep.
//
// Concurrency: StepRange calls over disjoint ranges touch disjoint
// slice elements only, so they may run on separate goroutines.
// Everything else (accessors, SetInletTempC, Restore) must not overlap
// a StepRange.
type Fleet struct {
	n int

	// Construction inputs and the parameters derived from them once,
	// the way Node caches them at construction.
	spec    ServerSpec
	mat     pcm.Material
	curve   pcm.CurveParams // enthalpy-curve segment parameters
	kAir    float64         // AirConductanceWPerK
	hWax    float64         // WaxConductanceWPerK
	cAir    float64         // air heat capacity (J/K)
	invCAir float64         // 1/cAir
	subStep time.Duration
	subSec  float64 // subStep in seconds

	// Integrated state. waxTC and meltFrac are cached projections of
	// waxHJ through the curve segments, refreshed on every state
	// change — except that construction pins waxTC verbatim to the
	// inlet temperature, exactly as Pack.Reset does, so initial states
	// match the scalar path bit for bit.
	airC     []float64
	waxHJ    []float64
	waxTC    []float64
	meltFrac []float64
	inletC   []float64

	// Cumulative energy ledgers (conservation tests, cooling metrics).
	inputJ  []float64
	ejectJ  []float64
	storedJ []float64

	// Per-step outputs, overwritten by each StepRange: the mean heat
	// flows over the last step (the StepResult fields that are not
	// state projections).
	coolingW []float64
	waxFlowW []float64

	// settled marks servers whose last step replayed a memoized
	// transition — the fleet's steady-state fraction, exposed for
	// telemetry. Purely observational.
	settled []bool

	// memo holds each server's two-slot step-transition memo (the
	// vectorized form of Node.memo): keys are raw IEEE-754 bit
	// patterns matched with integer equality. A hit replays the
	// recorded post-state and ledger deltas bit-identically;
	// everything derivable (projections, mean flows, input energy) is
	// recomputed from the same pure functions that produced it, so
	// nothing redundant is stored.
	memo []memoPair
	// memoState is each memo's bookkeeping byte: which slots hold a
	// record (memoValid0, memoValid1) and which one the next record
	// overwrites (memoNext). It is the explicit unset marker, kept out
	// of the slots so that StepRange reads a server's slots only when
	// the byte shows a record: where no server settles, the memo check
	// streams one byte per server.
	memoState []uint8
}

// memoSlot is one recorded step transition of one server. Whether it
// holds a record is the server's memoState byte's business.
type memoSlot struct {
	airBits  uint64
	waxHBits uint64
	powBits  uint64
	dt       time.Duration
	postAirC float64
	postWaxH float64
	ejectJ   float64
	storedJ  float64
}

// matches reports whether slot m recorded a step from exactly this
// pre-state and input; the caller has checked that it holds a record.
// It is small enough to inline: with the slots tested one after the
// other instead of in a loop, StepRange's per-server path keeps its
// state in registers.
//
//vmt:hotpath
func (m *memoSlot) matches(airBits, waxHBits, powBits uint64, dt time.Duration) bool {
	return m.airBits == airBits && m.waxHBits == waxHBits &&
		m.powBits == powBits && m.dt == dt
}

// memoPair is a server's two-slot round-robin memo; its bookkeeping is
// the server's memoState byte.
type memoPair [2]memoSlot

// memoState bits: slot 0 and slot 1 hold a record, and the next record
// goes to slot 1 (clear: slot 0).
const (
	memoValid0 = 1 << iota
	memoValid1
	memoNext

	memoValid = memoValid0 | memoValid1
)

// NewFleet builds a fleet of len(inlets) servers of one spec and one
// material, server i at thermal equilibrium with inlets[i]: air node
// and wax both start at the inlet (fully solid wax below the melting
// point), exactly as NewNode does. The fleet keeps its own copy of
// inlets.
func NewFleet(spec ServerSpec, mat pcm.Material, inlets []float64) (*Fleet, error) {
	n := len(inlets)
	if n == 0 {
		return nil, fmt.Errorf("thermal: a fleet needs at least one server")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cp, err := pcm.CurveParamsFor(mat, spec.WaxVolumeL)
	if err != nil {
		return nil, err
	}
	cAir := spec.AirHeatCapacityJPerK()
	f := &Fleet{
		n:         n,
		spec:      spec,
		mat:       mat,
		curve:     cp,
		kAir:      spec.AirConductanceWPerK,
		hWax:      spec.WaxConductanceWPerK,
		cAir:      cAir,
		invCAir:   1 / cAir,
		subStep:   spec.SubStep,
		subSec:    spec.SubStep.Seconds(),
		airC:      slices.Clone(inlets),
		waxHJ:     make([]float64, n),
		waxTC:     slices.Clone(inlets),
		meltFrac:  make([]float64, n),
		inletC:    slices.Clone(inlets),
		inputJ:    make([]float64, n),
		ejectJ:    make([]float64, n),
		storedJ:   make([]float64, n),
		coolingW:  make([]float64, n),
		waxFlowW:  make([]float64, n),
		settled:   make([]bool, n),
		memo:      make([]memoPair, n),
		memoState: make([]uint8, n),
	}
	// Pack.Reset semantics: the enthalpy is the curve inversion at the
	// inlet, the cached temperature is the inlet verbatim (not the
	// round-tripped projection), and the melt fraction snaps to the
	// phase boundary.
	for i, inletC := range inlets {
		f.waxHJ[i] = cp.EnthalpyAt(inletC)
		if inletC > mat.MeltTempC {
			f.meltFrac[i] = 1
		}
	}
	return f, nil
}

// Len returns the fleet size.
func (f *Fleet) Len() int { return f.n }

// vecLanes is the width of the lane list StepRange integrates at once:
// small enough that the lanes' loop-carried state fits the register
// file plus first cache lines, wide enough to keep a superscalar core's
// floating-point units fed with independent dependency chains.
const vecLanes = 8

// StepRange advances servers [lo,hi) by dt, each under the constant
// power draw power[i]. Per-server outcomes land in the fleet's state
// and output slices (see View).
//
// Each server's power is checked (non-negative) and then the server
// either replays its step-transition memo on the spot or joins a lane
// list of up to vecLanes servers. stepLanes integrates the list when
// it fills, before an error return, and at the end of the range.
// Servers never interact, so integrating a server after a later
// server's replay changes no value.
//
// On error it reports the offending server index: every server before
// it has committed its step, and it and every later server are
// untouched, which is the scalar path's first-error semantics when
// callers stop at the first failure. A power slice shorter than hi is
// rejected before any server is touched.
//
// Ranges that do not overlap may be stepped concurrently: the kernel
// reads and writes only index i of every per-server slice while on
// server i.
//
//vmt:hotpath
func (f *Fleet) StepRange(lo, hi int, power []float64, dt time.Duration) (int, error) {
	if lo < 0 || hi > f.n || lo > hi {
		return lo, fmt.Errorf("thermal: fleet range [%d,%d) out of bounds [0,%d)", lo, hi, f.n) //vmtlint:allow hotpath error path, off the steady-state path
	}
	if len(power) < hi {
		return lo, fmt.Errorf("thermal: power has %d entries for range [%d,%d)", len(power), lo, hi) //vmtlint:allow hotpath error path, off the steady-state path
	}
	if dt <= 0 {
		return lo, fmt.Errorf("thermal: non-positive step %v", dt) //vmtlint:allow hotpath error path, off the steady-state path
	}
	sec := dt.Seconds()
	var lanes [vecLanes]int
	w := 0
	for i := lo; i < hi; i++ {
		powerW := power[i]
		if powerW < 0 {
			f.stepLanes(lanes[:w], power, sec, dt)
			return i, fmt.Errorf("thermal: negative power %v", powerW) //vmtlint:allow hotpath error path, off the steady-state path
		}

		// Memo check: a hit replays the recorded transition. The key is
		// (air, enthalpy, power, dt) exactly as in Node.Step — the
		// cached wax temperature is derived state under every reachable
		// pre-state, so it does not key. Slot 0 is tried first, as in
		// Node.Step, and a server whose byte shows no record skips the
		// slots entirely.
		if st := f.memoState[i]; st&memoValid != 0 {
			airBits := math.Float64bits(f.airC[i])
			waxHBits := math.Float64bits(f.waxHJ[i])
			powBits := math.Float64bits(powerW)
			mp := &f.memo[i]
			var m *memoSlot
			if st&memoValid0 != 0 && mp[0].matches(airBits, waxHBits, powBits, dt) {
				m = &mp[0]
			} else if st&memoValid1 != 0 && mp[1].matches(airBits, waxHBits, powBits, dt) {
				m = &mp[1]
			}
			if m != nil {
				f.airC[i] = m.postAirC
				f.commitWax(i, m.postWaxH)
				f.inputJ[i] += powerW * sec
				f.ejectJ[i] += m.ejectJ
				f.storedJ[i] += m.storedJ
				f.coolingW[i] = m.ejectJ / sec
				f.waxFlowW[i] = m.storedJ / sec
				f.settled[i] = true
				continue
			}
		}

		lanes[w] = i
		w++
		if w == vecLanes {
			f.stepLanes(lanes[:w], power, sec, dt)
			w = 0
		}
	}
	f.stepLanes(lanes[:w], power, sec, dt)
	return -1, nil
}

// stepLanes integrates the servers listed in lanes (at most vecLanes,
// already checked by StepRange, none replaying a memo) substep-major:
// substep k runs for every lane before substep k+1 runs for any. Every
// statement in the lane body is the corresponding Node.Step statement
// on lane slots and the fleet's parameters — expression for
// expression, in the same order — and lanes never mix, so each lane's
// result is bit-identical to the scalar oracle's; the kernelparity
// analyzer verifies the marked regions against it. The schedule lets
// the lanes' independent dependency chains interleave in the
// instruction stream, so an out-of-order core overlaps them instead of
// stalling on one server's ~30-cycle-per-substep chain.
//
// lanes must have capacity of at least vecLanes (StepRange slices it
// from a [vecLanes]int).
//
//vmt:hotpath
func (f *Fleet) stepLanes(lanes []int, power []float64, sec float64, dt time.Duration) {
	if len(lanes) == 0 {
		return
	}
	// Capping the capacity at vecLanes proves len(lanes) <= vecLanes,
	// so the compiler drops the bounds checks on the lane arrays inside
	// the substep loops (-gcflags=-d=ssa/check_bce reports none there).
	lanes = lanes[:len(lanes):vecLanes]
	var (
		airV, waxHV, waxTV     [vecLanes]float64
		air0V, waxH0V          [vecLanes]float64
		powV, inletV, ejV, stV [vecLanes]float64
	)
	for j, i := range lanes {
		airV[j] = f.airC[i]
		waxHV[j] = f.waxHJ[i]
		waxTV[j] = f.waxTC[i]
		air0V[j] = airV[j]
		waxH0V[j] = waxHV[j]
		powV[j] = power[i]
		inletV[j] = f.inletC[i]
	}
	// The fleet's parameters, bound once per list under the names
	// Node.Step hoists them to. The kernel regions below cannot see
	// these bindings, so only the differential oracle checks them.
	kAir, hWax, invCAir := f.kAir, f.hWax, f.invCAir
	sub, subSec := f.subStep, f.subSec
	mC, hLo, hHi := f.curve.MeltC, f.curve.HMeltLoJ, f.curve.HMeltHiJ
	invSol, invLiq := f.curve.InvCapSolidJPerK, f.curve.InvCapLiquidJPerK
	nFull := int(dt / sub)
	partial := dt - time.Duration(nFull)*sub
	for k := 0; k < nFull; k++ {
		for j := range lanes {
			//vmt:kernel substep mirror begin
			toRoom := kAir * (airV[j] - inletV[j])
			toWax := hWax * (airV[j] - waxTV[j])
			airV[j] += subSec * (powV[j] - toRoom - toWax) * invCAir
			waxHV[j] += toWax * subSec
			switch {
			case waxHV[j] < hLo:
				waxTV[j] = waxHV[j] * invSol
			case waxHV[j] >= hHi:
				waxTV[j] = mC + (waxHV[j]-hHi)*invLiq
			default:
				waxTV[j] = mC
			}
			ejV[j] += toRoom * subSec
			stV[j] += toWax * subSec
			//vmt:kernel end
		}
	}
	if partial > 0 {
		psec := partial.Seconds()
		for j := range lanes {
			//vmt:kernel substep-tail mirror begin
			toRoom := kAir * (airV[j] - inletV[j])
			toWax := hWax * (airV[j] - waxTV[j])
			airV[j] += psec * (powV[j] - toRoom - toWax) * invCAir
			waxHV[j] += toWax * psec
			ejV[j] += toRoom * psec
			stV[j] += toWax * psec
			//vmt:kernel end
		}
	}
	for j, i := range lanes {
		f.airC[i] = airV[j]
		f.commitWax(i, waxHV[j])
		f.inputJ[i] += powV[j] * sec
		f.ejectJ[i] += ejV[j]
		f.storedJ[i] += stV[j]
		f.coolingW[i] = ejV[j] / sec
		f.waxFlowW[i] = stV[j] / sec
		f.settled[i] = false
		// Memoize stationary-wax transitions only, like Node.Step: an
		// actively charging or discharging pre-state never recurs.
		if math.Float64bits(waxHV[j]) == math.Float64bits(waxH0V[j]) {
			st := f.memoState[i]
			next := st & memoNext >> 2 // the slot to overwrite: memoNext is bit 2
			f.memo[i][next] = memoSlot{
				airBits:  math.Float64bits(air0V[j]),
				waxHBits: math.Float64bits(waxH0V[j]),
				powBits:  math.Float64bits(powV[j]),
				dt:       dt,
				postAirC: airV[j],
				postWaxH: waxHV[j],
				ejectJ:   ejV[j],
				storedJ:  stV[j],
			}
			f.memoState[i] = (st | memoValid0<<next) ^ memoNext
		}
	}
}

// commitWax stores a new enthalpy for server i and refreshes the
// cached temperature and melt-fraction projections (curve.state,
// inlined — melt fraction keeps true division by the latent heat so it
// can never round above 1 inside the segment).
//
//vmt:hotpath
func (f *Fleet) commitWax(i int, h float64) {
	cp := &f.curve
	f.waxHJ[i] = h
	switch {
	case h < cp.HMeltLoJ:
		f.waxTC[i] = h * cp.InvCapSolidJPerK
		f.meltFrac[i] = 0
	case h >= cp.HMeltHiJ:
		f.waxTC[i] = cp.MeltC + (h-cp.HMeltHiJ)*cp.InvCapLiquidJPerK
		f.meltFrac[i] = 1
	default:
		f.waxTC[i] = cp.MeltC
		f.meltFrac[i] = (h - cp.HMeltLoJ) / cp.LatentJ
	}
}

// View is the read-only window onto the fleet's per-server slices the
// sampling reduction iterates. The slices are owned by the fleet and
// overwritten by subsequent steps; callers that retain values across
// steps must copy them, and no caller may write through them.
type View struct {
	// AirTempC and MeltFrac are the current state projections.
	AirTempC []float64
	MeltFrac []float64
	// CoolingLoadW and WaxFlowW are the mean heat flows over the last
	// step (to the room, and into the wax).
	CoolingLoadW []float64
	WaxFlowW     []float64
	// WaxStoredJ is the cumulative energy parked in wax since
	// construction (the WaxStoredJ ledger), per server.
	WaxStoredJ []float64
	// Settled marks servers whose last step replayed a memoized
	// steady-state transition.
	Settled []bool
}

// View returns the fleet's live per-server slices for fixed-order
// reductions.
//
//vmt:hotpath
func (f *Fleet) View() View {
	return View{
		AirTempC:     f.airC,
		MeltFrac:     f.meltFrac,
		CoolingLoadW: f.coolingW,
		WaxFlowW:     f.waxFlowW,
		WaxStoredJ:   f.storedJ,
		Settled:      f.settled,
	}
}

// AirTempC returns server i's current air temperature at the wax.
func (f *Fleet) AirTempC(i int) float64 { return f.airC[i] }

// WaxTempC returns server i's current wax temperature.
func (f *Fleet) WaxTempC(i int) float64 { return f.waxTC[i] }

// MeltFrac returns server i's wax melt fraction in [0,1].
func (f *Fleet) MeltFrac(i int) float64 { return f.meltFrac[i] }

// EnthalpyJ returns server i's pack enthalpy relative to fully solid
// wax at refTempC (Pack.EnthalpyJ semantics).
func (f *Fleet) EnthalpyJ(i int, refTempC float64) float64 {
	return f.waxHJ[i] - f.curve.CapSolidJPerK*refTempC
}

// InletTempC returns server i's configured inlet temperature.
func (f *Fleet) InletTempC(i int) float64 { return f.inletC[i] }

// SetInletTempC overrides server i's inlet temperature (inlet
// variation experiments) and invalidates its step memo, exactly as
// Node.SetInletTempC does.
func (f *Fleet) SetInletTempC(i int, c float64) {
	f.inletC[i] = c
	f.memoState[i] &^= memoValid
}

// Settled reports whether server i's last step replayed a memoized
// steady-state transition.
func (f *Fleet) Settled(i int) bool { return f.settled[i] }

// CoolingLoadW returns server i's mean heat flow to the room over the
// last step.
func (f *Fleet) CoolingLoadW(i int) float64 { return f.coolingW[i] }

// WaxFlowW returns server i's mean heat flow into the wax over the
// last step.
func (f *Fleet) WaxFlowW(i int) float64 { return f.waxFlowW[i] }

// Ledger returns server i's cumulative energy accounting.
func (f *Fleet) Ledger(i int) EnergyLedger {
	return EnergyLedger{InputJ: f.inputJ[i], EjectedJ: f.ejectJ[i], WaxStoredJ: f.storedJ[i]}
}

// AirEnergyJ returns the energy held by server i's air node relative
// to its inlet temperature — the remainder term in the conservation
// balance.
func (f *Fleet) AirEnergyJ(i int) float64 {
	return f.cAir * (f.airC[i] - f.inletC[i])
}

// Spec returns the servers' specification.
func (f *Fleet) Spec() ServerSpec { return f.spec }

// Material returns the servers' PCM material.
func (f *Fleet) Material() pcm.Material { return f.mat }
