package thermal

import (
	"fmt"
	"math"
	"time"

	"vmt/internal/pcm"
)

// Fleet is the struct-of-arrays thermal state for a whole fleet of
// servers: every per-server scalar the integration kernel touches —
// temperature, enthalpy, inlet, conductances, enthalpy-curve segment
// parameters, energy ledgers, step-transition memos — lives in a flat
// parallel slice indexed by server ID. One StepRange over a contiguous
// ID range walks those slices in order, so the hot loop streams
// through memory instead of chasing a *Server → *Node → *Pack pointer
// chain per server, and disjoint ranges can be advanced concurrently
// with no sharing at all.
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

	// Integrated state. waxTC and meltFrac are cached projections of
	// waxHJ through the per-server curve segments, refreshed on every
	// state change — except that initialization pins waxTC verbatim to
	// the inlet temperature, exactly as Pack.Reset does, so initial
	// states match the scalar path bit for bit.
	airC     []float64
	waxHJ    []float64
	waxTC    []float64
	meltFrac []float64
	inletC   []float64

	// Per-server spec parameters (hoisted once at Init, the way Node
	// caches them at construction). Indexed per server so heterogeneous
	// fleets are just different values in the slices.
	kAir    []float64 // AirConductanceWPerK
	hWax    []float64 // WaxConductanceWPerK
	cAir    []float64 // air heat capacity (J/K)
	invCAir []float64 // 1/cAir
	subStep []time.Duration
	subSec  []float64 // subStep in seconds, precomputed

	// Per-server enthalpy-curve segment parameters (see pcm.CurveParams).
	meltC     []float64
	hMeltLo   []float64
	hMeltHi   []float64
	invCapSol []float64
	invCapLiq []float64
	capSol    []float64
	latentJ   []float64

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

	// Construction records, kept for snapshots and accessors.
	specs []ServerSpec
	mats  []pcm.Material
	init  []bool
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

// NewFleet allocates a store for n servers. Every server must be
// initialized with Init before the fleet can step.
func NewFleet(n int) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("thermal: need a positive fleet size, got %d", n)
	}
	return &Fleet{
		n:         n,
		airC:      make([]float64, n),
		waxHJ:     make([]float64, n),
		waxTC:     make([]float64, n),
		meltFrac:  make([]float64, n),
		inletC:    make([]float64, n),
		kAir:      make([]float64, n),
		hWax:      make([]float64, n),
		cAir:      make([]float64, n),
		invCAir:   make([]float64, n),
		subStep:   make([]time.Duration, n),
		subSec:    make([]float64, n),
		meltC:     make([]float64, n),
		hMeltLo:   make([]float64, n),
		hMeltHi:   make([]float64, n),
		invCapSol: make([]float64, n),
		invCapLiq: make([]float64, n),
		capSol:    make([]float64, n),
		latentJ:   make([]float64, n),
		inputJ:    make([]float64, n),
		ejectJ:    make([]float64, n),
		storedJ:   make([]float64, n),
		coolingW:  make([]float64, n),
		waxFlowW:  make([]float64, n),
		settled:   make([]bool, n),
		memo:      make([]memoPair, n),
		memoState: make([]uint8, n),
		specs:     make([]ServerSpec, n),
		mats:      make([]pcm.Material, n),
		init:      make([]bool, n),
	}, nil
}

// Init configures server i at thermal equilibrium with its inlet air:
// air node and wax both start at inletC (fully solid wax below the
// melting point), exactly as NewNode does. Materials and specs may
// differ per server — heterogeneity is just different parameter values
// in the slices.
func (f *Fleet) Init(i int, spec ServerSpec, mat pcm.Material, inletC float64) error {
	if i < 0 || i >= f.n {
		return fmt.Errorf("thermal: fleet index %d out of range [0,%d)", i, f.n)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	cp, err := pcm.CurveParamsFor(mat, spec.WaxVolumeL)
	if err != nil {
		return err
	}
	cAir := spec.AirHeatCapacityJPerK()
	f.specs[i] = spec
	f.mats[i] = mat
	f.kAir[i] = spec.AirConductanceWPerK
	f.hWax[i] = spec.WaxConductanceWPerK
	f.cAir[i] = cAir
	f.invCAir[i] = 1 / cAir
	f.subStep[i] = spec.SubStep
	f.subSec[i] = spec.SubStep.Seconds()
	f.meltC[i] = cp.MeltC
	f.hMeltLo[i] = cp.HMeltLoJ
	f.hMeltHi[i] = cp.HMeltHiJ
	f.invCapSol[i] = cp.InvCapSolidJPerK
	f.invCapLiq[i] = cp.InvCapLiquidJPerK
	f.capSol[i] = cp.CapSolidJPerK
	f.latentJ[i] = cp.LatentJ
	f.inletC[i] = inletC
	f.airC[i] = inletC
	// Pack.Reset semantics: the enthalpy is the curve inversion at the
	// inlet, the cached temperature is the inlet verbatim (not the
	// round-tripped projection), and the melt fraction snaps to the
	// phase boundary.
	f.waxHJ[i] = cp.EnthalpyAt(inletC)
	f.waxTC[i] = inletC
	if inletC > mat.MeltTempC {
		f.meltFrac[i] = 1
	} else {
		f.meltFrac[i] = 0
	}
	f.inputJ[i] = 0
	f.ejectJ[i] = 0
	f.storedJ[i] = 0
	f.coolingW[i] = 0
	f.waxFlowW[i] = 0
	f.settled[i] = false
	f.memo[i] = memoPair{}
	f.memoState[i] = 0
	f.init[i] = true
	return nil
}

// Len returns the fleet size.
func (f *Fleet) Len() int { return f.n }

// Initialized reports whether every server has been configured.
func (f *Fleet) Initialized() bool {
	for _, ok := range f.init {
		if !ok {
			return false
		}
	}
	return true
}

// vecLanes is the width of the lane list StepRange integrates at once:
// small enough that the lanes' loop-carried state fits the register
// file plus first cache lines, wide enough to keep a superscalar core's
// floating-point units fed with independent dependency chains.
const vecLanes = 8

// StepRange advances servers [lo,hi) by dt, each under the constant
// power draw power[i]. Per-server outcomes land in the fleet's state
// and output slices (see View).
//
// Each server is checked (initialized, non-negative power) and then
// either replays its step-transition memo on the spot or joins a lane
// list of up to vecLanes servers that share one substep length.
// stepLanes integrates the list when it fills, when the next server's
// substep length differs, before an error return, and at the end of
// the range. Servers never interact, so integrating a server after a
// later server's replay changes no value.
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
	var sub time.Duration
	for i := lo; i < hi; i++ {
		if !f.init[i] {
			f.stepLanes(lanes[:w], power, sec, dt)
			return i, fmt.Errorf("thermal: fleet server %d not initialized", i) //vmtlint:allow hotpath error path, off the steady-state path
		}
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

		if w > 0 && f.subStep[i] != sub {
			f.stepLanes(lanes[:w], power, sec, dt)
			w = 0
		}
		sub = f.subStep[i]
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
// sharing one substep length, already checked by StepRange, none
// replaying a memo) substep-major: substep k runs for every lane
// before substep k+1 runs for any. Every statement in the lane body is
// the corresponding Node.Step statement on lane slots — expression for
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
		airV, waxHV, waxTV                [vecLanes]float64
		air0V, waxH0V                     [vecLanes]float64
		powV, inletV, kAirV, hWaxV        [vecLanes]float64
		invCAirV                          [vecLanes]float64
		mCV, hLoV, hHiV, invSolV, invLiqV [vecLanes]float64
		ejV, stV                          [vecLanes]float64
	)
	for j, i := range lanes {
		airV[j] = f.airC[i]
		waxHV[j] = f.waxHJ[i]
		waxTV[j] = f.waxTC[i]
		air0V[j] = airV[j]
		waxH0V[j] = waxHV[j]
		powV[j] = power[i]
		inletV[j] = f.inletC[i]
		kAirV[j] = f.kAir[i]
		hWaxV[j] = f.hWax[i]
		invCAirV[j] = f.invCAir[i]
		mCV[j] = f.meltC[i]
		hLoV[j] = f.hMeltLo[i]
		hHiV[j] = f.hMeltHi[i]
		invSolV[j] = f.invCapSol[i]
		invLiqV[j] = f.invCapLiq[i]
	}
	sub := f.subStep[lanes[0]]
	subSec := f.subSec[lanes[0]]
	nFull := int(dt / sub)
	partial := dt - time.Duration(nFull)*sub
	for k := 0; k < nFull; k++ {
		for j := range lanes {
			//vmt:kernel substep mirror begin
			toRoom := kAirV[j] * (airV[j] - inletV[j])
			toWax := hWaxV[j] * (airV[j] - waxTV[j])
			airV[j] += subSec * (powV[j] - toRoom - toWax) * invCAirV[j]
			waxHV[j] += toWax * subSec
			switch {
			case waxHV[j] < hLoV[j]:
				waxTV[j] = waxHV[j] * invSolV[j]
			case waxHV[j] >= hHiV[j]:
				waxTV[j] = mCV[j] + (waxHV[j]-hHiV[j])*invLiqV[j]
			default:
				waxTV[j] = mCV[j]
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
			toRoom := kAirV[j] * (airV[j] - inletV[j])
			toWax := hWaxV[j] * (airV[j] - waxTV[j])
			airV[j] += psec * (powV[j] - toRoom - toWax) * invCAirV[j]
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
	f.waxHJ[i] = h
	switch {
	case h < f.hMeltLo[i]:
		f.waxTC[i] = h * f.invCapSol[i]
		f.meltFrac[i] = 0
	case h >= f.hMeltHi[i]:
		f.waxTC[i] = f.meltC[i] + (h-f.hMeltHi[i])*f.invCapLiq[i]
		f.meltFrac[i] = 1
	default:
		f.waxTC[i] = f.meltC[i]
		f.meltFrac[i] = (h - f.hMeltLo[i]) / f.latentJ[i]
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
	return f.waxHJ[i] - f.capSol[i]*refTempC
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
	return f.cAir[i] * (f.airC[i] - f.inletC[i])
}

// Spec returns server i's specification.
func (f *Fleet) Spec(i int) ServerSpec { return f.specs[i] }

// Material returns server i's PCM material.
func (f *Fleet) Material(i int) pcm.Material { return f.mats[i] }
