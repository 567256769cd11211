package core

import (
	"time"

	"vmt/internal/cluster"
	"vmt/internal/sched"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// WaxAware is VMT with wax aware job placement (VMT-WA, Section
// III-B). It schedules like VMT-TA until hot-group wax saturates:
// every scheduling period it scans each server's *reported* melt state
// (the per-server lookup-table estimator, not ground truth), counts
// the servers above the wax threshold, and rebuilds the hot group as
// the Equation-1 minimum plus one cold-group server per fully melted
// server — keeping melted servers loaded (so their wax stays molten)
// while steering fresh hot load onto newly added servers with
// unmelted wax.
type WaxAware struct {
	g   groups
	cfg Config
	// baseHot is the fault-free Equation-1 minimum; effBase is the
	// capacity-loss-aware minimum actually in effect this tick. With
	// no crashed servers effBase == baseHot, so fault-free runs are
	// bit-identical to the pre-topology behavior. When whole domains
	// disappear, Equation 1 is re-evaluated over the surviving
	// capacity — the hot fraction is a property of the fleet that
	// exists, not the fleet that was provisioned.
	baseHot int
	effBase int
	pmtC    float64
	// kAirWPerK and powerScale are hoisted spec scalars; reading them
	// through Config() would copy the whole spec struct once per
	// rebalancing probe.
	kAirWPerK  float64
	powerScale float64

	// Optional instruments (nil-safe) plus the last observed state
	// they diff against. prevMelted starts at 0 so the first tick's
	// melted servers (normally none) count as trips.
	resizes    *telemetry.Counter
	trips      *telemetry.Counter
	migrations *telemetry.Counter
	fallbacks  *telemetry.Counter
	prevMelted int

	// degraded[i] marks servers whose melt estimate cannot be trusted
	// this tick: the server is crashed, its estimate has gone stale
	// (sensor dropout past DefaultMaxEstimateAge), or the reported
	// fraction is garbage. Degraded servers read as "not melted" so
	// VMT-WA falls back to VMT-TA-style even placement for them
	// instead of acting on bad data. Refreshed by refreshHealth.
	degraded []bool

	// mask holds one byte of wax-state bits per server (waxCanMeltMore,
	// waxMolten, waxNotMelted), so the filtered scans and the
	// rebalancing loops test a bit instead of re-reading the degraded
	// flag, the estimate, the report filter and the air temperature on
	// every visit. bits rebuilds it on its first read after
	// refreshHealth marks it stale or the cluster's report epoch moves
	// past maskEpoch: nothing else changes a bit, because placements
	// and migrations move jobs, not wax state or air. meltedCount is
	// the last build's count of melted servers.
	mask        []uint8
	maskEpoch   uint64
	maskStale   bool
	meltedCount int
	// checkMask, when non-nil, is called with the mask on every read.
	// Only tests set it, to re-derive each bit from its predicate.
	checkMask func(mask []uint8)
}

// Wax-state bits. Each is computed from its own predicate over the
// server's melted state (see buildMask) and air temperature; none is
// the complement of another, since with a NaN air temperature neither
// waxCanMeltMore nor waxMolten holds for a melted server.
const (
	// waxCanMeltMore: !melted || air < PMT. Hot load placed here can
	// melt more wax or keep molten wax melted (the Section III-B
	// placement predicate).
	waxCanMeltMore uint8 = 1 << iota
	// waxMolten: melted && air ≥ PMT. Already molten, so extra heat
	// here does minimal damage.
	waxMolten
	// waxNotMelted: !melted.
	waxNotMelted
)

// DefaultMaxEstimateAge is how old a melt estimate may grow (no
// successful sensor reading) before VMT-WA stops trusting it and
// degrades that server to thermal-aware placement.
const DefaultMaxEstimateAge = 5 * time.Minute

// NewWaxAware builds a VMT-WA scheduler over c. Unless cfg reads
// ground truth (OracleWaxState), it enables c's wax-state estimates,
// which fails once c has stepped without them.
func NewWaxAware(c *cluster.Cluster, cfg Config) (*WaxAware, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.OracleWaxState {
		if err := c.EnableEstimates(); err != nil {
			return nil, err
		}
	}
	if cfg.WaxThreshold == 0 { //vmtlint:allow floateq zero-value "unset" sentinel, exact by construction
		cfg.WaxThreshold = DefaultWaxThreshold
	}
	if cfg.MigrationBudgetFrac == 0 { //vmtlint:allow floateq zero-value "unset" sentinel, exact by construction
		cfg.MigrationBudgetFrac = 0.25
	}
	pmt := c.Config().Material.MeltTempC
	base := HotGroupSize(cfg.GV, pmt, c.Len())
	return &WaxAware{
		g:          newGroups(c, base),
		cfg:        cfg,
		baseHot:    base,
		effBase:    base,
		pmtC:       pmt,
		kAirWPerK:  c.Config().Server.AirConductanceWPerK,
		powerScale: c.Config().Server.PowerScale,
		resizes:    cfg.Metrics.Counter("sched_hot_group_resizes"),
		trips:      cfg.Metrics.Counter("sched_threshold_trips"),
		migrations: cfg.Metrics.Counter("sched_migrations"),
		fallbacks:  cfg.Metrics.Counter("sched_estimate_fallbacks"),
		degraded:   make([]bool, c.Len()),
		mask:       make([]uint8, c.Len()),
		maskStale:  true,
	}, nil
}

// Name implements sched.Scheduler.
func (wa *WaxAware) Name() string { return "vmt-wa" }

// HotGroupSize returns the current (dynamic) hot group size.
func (wa *WaxAware) HotGroupSize() int { return wa.g.hotSize }

// BaseHotGroupSize returns the Equation-1 minimum.
func (wa *WaxAware) BaseHotGroupSize() int { return wa.baseHot }

// SetGV retunes the grouping value in place: the Equation-1 minimum is
// re-evaluated and the next Tick rebuilds the dynamic group from it.
func (wa *WaxAware) SetGV(gv float64) {
	wa.cfg.GV = gv
	wa.baseHot = HotGroupSize(gv, wa.pmtC, wa.g.c.Len())
	wa.effBase = wa.effectiveBase()
	if wa.g.hotSize < wa.effBase {
		wa.g.hotSize = wa.effBase
	}
}

// effectiveBase returns the Equation-1 minimum over the surviving
// capacity: identical to baseHot with no failures (the common case
// pays one counter read), re-derived from the alive count otherwise.
func (wa *WaxAware) effectiveBase() int {
	failed := wa.g.c.FailedServers()
	if failed == 0 {
		return wa.baseHot
	}
	return HotGroupSize(wa.cfg.GV, wa.pmtC, wa.g.c.Len()-failed)
}

// IsHot reports whether server s currently belongs to the hot group.
func (wa *WaxAware) IsHot(s *cluster.Server) bool { return wa.g.isHot(s) }

// buildMask recomputes every server's wax-state bits and the melted
// count. The scheduler considers a server fully melted when its
// reported melt fraction (ground truth under the oracle ablation)
// reaches the wax threshold. A degraded server (crashed, stale, or
// garbage estimate) always reads as not melted — the
// graceful-degradation rule that turns VMT-WA into VMT-TA for the
// affected servers.
func (wa *WaxAware) buildMask() {
	count := 0
	for i, s := range wa.g.c.Servers() {
		melted := false
		if !wa.degraded[i] {
			if wa.cfg.OracleWaxState {
				melted = s.MeltFrac() >= wa.cfg.WaxThreshold
			} else {
				melted = s.ReportedMeltFrac() >= wa.cfg.WaxThreshold
			}
		}
		air := s.AirTempC()
		var b uint8
		if !melted || air < wa.pmtC {
			b |= waxCanMeltMore
		}
		if melted && air >= wa.pmtC {
			b |= waxMolten
		}
		if !melted {
			b |= waxNotMelted
		} else {
			count++
		}
		wa.mask[i] = b
	}
	wa.meltedCount = count
	wa.maskEpoch = wa.g.c.ReportEpoch()
	wa.maskStale = false
}

// bits returns the wax-state mask, rebuilding it first if
// refreshHealth has run or the cluster's report epoch has moved since
// the last build. The first read can come before Tick: crash
// evacuations place, and the stream manager's departures select,
// between the tick's Step and the scheduler's Tick.
func (wa *WaxAware) bits() []uint8 {
	if wa.maskStale || wa.maskEpoch != wa.g.c.ReportEpoch() {
		wa.buildMask()
	}
	if wa.checkMask != nil {
		wa.checkMask(wa.mask)
	}
	return wa.mask
}

// refreshHealth recomputes the degraded set and marks the wax-state
// mask stale (Preserving.Tick calls it without Tick). A
// healthy-to-degraded transition increments sched_estimate_fallbacks.
// With the oracle ablation only crashes degrade a server (ground truth
// cannot go stale).
func (wa *WaxAware) refreshHealth() {
	wa.maskStale = true
	servers := wa.g.c.Servers()
	for i, s := range servers {
		d := s.Failed()
		if !d && !wa.cfg.OracleWaxState {
			if s.ReportsQuarantined() {
				// The guard's cross-checks caught this server lying
				// about its reports; distrust its melt state until the
				// quarantine lifts.
				d = true
			} else if s.Estimator().StaleFor() > DefaultMaxEstimateAge {
				d = true
			} else if frac := s.ReportedMeltFrac(); frac < -0.01 || frac > 1.01 {
				d = true
			}
		}
		if d && !wa.degraded[i] {
			wa.fallbacks.Inc()
		}
		wa.degraded[i] = d
	}
}

// canMeltMore reports whether placing hot load on s can melt more wax
// or keep molten wax melted: s is below the threshold or below the
// melting temperature (the Section III-B placement predicate).
func (wa *WaxAware) canMeltMore(s *cluster.Server) bool {
	return wa.bits()[s.ID()]&waxCanMeltMore != 0
}

// Tick implements sched.Scheduler: restart from the Equation-1
// minimum and grow the hot group by one server per fully melted
// server, never shrinking while those servers stay melted (cooling a
// melted server would release its stored heat mid-peak). After
// resizing, surplus load is migrated off fully melted servers — they
// keep "just enough load to keep the wax melted" — onto hot-group
// servers that can still store heat, which is what lets VMT-WA keep
// melting after the initial hot group saturates (Figure 14).
func (wa *WaxAware) Tick(time.Duration) {
	wa.refreshHealth()
	wa.bits() // refreshHealth forces a rebuild, which counts the melted servers
	meltedCount := wa.meltedCount
	if meltedCount > wa.prevMelted {
		wa.trips.Add(uint64(meltedCount - wa.prevMelted))
	}
	wa.prevMelted = meltedCount
	wa.effBase = wa.effectiveBase()
	size := wa.effBase + meltedCount
	if size > wa.g.c.Len() {
		size = wa.g.c.Len()
	}
	// Under fault injection the prefix stretches past crashed servers
	// so the group keeps its intended count of working machines;
	// fault-free this is the identity.
	size = wa.g.sizeForAlive(size)
	if size != wa.g.hotSize {
		wa.resizes.Inc()
	}
	wa.g.hotSize = size
	wa.rebalanceMelted()
}

// keepWarmPowerW returns the power that holds server s just above the
// melting temperature at steady state — the "just enough load" level
// for a fully melted server. A +0.5 °C margin guards against the wax
// refreezing (and dumping its stored heat) on small load dips.
func (wa *WaxAware) keepWarmPowerW(s *cluster.Server) float64 {
	return (wa.pmtC + 0.5 - s.InletTempC()) * wa.kAirWPerK
}

// rebalanceMelted migrates load after the hot group saturates: surplus
// hot jobs leave fully melted servers (which keep just enough load to
// stay above the melting temperature) and concentrate on extension
// servers; the cold jobs those extension servers were running move
// onto the melted servers' freed cores, where their heat does minimal
// damage (the wax there is already molten). Near peak utilization the
// cluster has almost no free cores, so this hot-for-cold swap is what
// actually drives extension servers above the melting temperature.
// Migration preserves global job counts, so the load manager's
// bookkeeping is unaffected.
//
// The per-tick migration budget (MigrationBudgetFrac of the cores)
// bounds scheduler churn; the handover completes over a few ticks,
// matching the paper's observation that VMT-WA extends the hot group
// at a visible granularity (Figure 14).
func (wa *WaxAware) rebalanceMelted() {
	for budget := int(float64(wa.g.c.TotalCores()) * wa.cfg.MigrationBudgetFrac); budget > 0; {
		moved := false
		if wa.shedOneHot() {
			budget--
			moved = true
			wa.migrations.Inc()
		}
		if budget > 0 && wa.clearOneCold() {
			budget--
			moved = true
			wa.migrations.Inc()
		}
		if !moved && wa.swapOne() {
			// Fully packed cluster: neither side has a free core to
			// bootstrap the gradual handover, so exchange one hot job
			// for one cold job atomically.
			budget--
			moved = true
			wa.migrations.Inc()
		}
		if !moved {
			return
		}
	}
}

// swapOne exchanges one hot job on a melted keep-warm-surplus server
// for one cold job on an extension server, without needing any free
// core. Reports whether an exchange happened.
func (wa *WaxAware) swapOne() bool {
	m := wa.bits()
	for i := 0; i < wa.g.hotSize; i++ {
		if m[i]&waxCanMeltMore != 0 {
			continue // a source is melted and at or above the PMT
		}
		src := wa.g.c.Server(i)
		hot, ok := wa.largestJob(src, workload.Hot)
		if !ok {
			continue
		}
		keep := wa.keepWarmPowerW(src)
		if src.PowerW()-hot.PerCorePowerW()*wa.powerScale < keep {
			continue
		}
		for j := wa.effBase; j < wa.g.hotSize; j++ {
			if j == i || m[j]&waxCanMeltMore == 0 {
				continue
			}
			e := wa.g.c.Server(j)
			cold, ok := wa.largestJob(e, workload.Cold)
			if !ok {
				continue
			}
			if src.Remove(hot) != nil {
				return false
			}
			if e.Remove(cold) != nil {
				_ = src.Place(hot) // roll back; should not happen
				return false
			}
			return e.Place(hot) == nil && src.Place(cold) == nil
		}
	}
	return false
}

// shedOneHot moves one hot job from a fully melted server with surplus
// power to the current melt target. Reports whether a move happened.
func (wa *WaxAware) shedOneHot() bool {
	m := wa.bits()
	for i := 0; i < wa.g.hotSize; i++ {
		if m[i]&waxCanMeltMore != 0 {
			continue // a source is melted and at or above the PMT
		}
		src := wa.g.c.Server(i)
		keep := wa.keepWarmPowerW(src)
		w, ok := wa.largestJob(src, workload.Hot)
		if !ok {
			continue
		}
		// Only shed if the server stays at keep-warm power afterwards;
		// draining it would refreeze the wax and release stored heat
		// in the middle of the peak.
		if src.PowerW()-w.PerCorePowerW()*wa.powerScale < keep {
			continue
		}
		dst := wa.meltTarget(w, src.ID())
		if dst == nil {
			return false
		}
		return src.Remove(w) == nil && dst.Place(w) == nil
	}
	return false
}

// clearOneCold moves one cold job off the extension server currently
// being filled, onto a melted hot-group server with a free core (where
// extra heat is thermally harmless), making room for hot load.
func (wa *WaxAware) clearOneCold() bool {
	m := wa.bits()
	for i := wa.effBase; i < wa.g.hotSize; i++ {
		if m[i]&waxCanMeltMore == 0 {
			continue
		}
		e := wa.g.c.Server(i)
		w, ok := wa.largestJob(e, workload.Cold)
		if !ok {
			continue // already converted to hot load; fill the next one
		}
		var dst *cluster.Server
		for j := 0; j < wa.g.hotSize; j++ {
			if j == i || m[j]&waxMolten == 0 {
				continue
			}
			if d := wa.g.c.Server(j); d.FreeCores() > 0 {
				dst = d
				break
			}
		}
		if dst == nil {
			return false
		}
		return e.Remove(w) == nil && dst.Place(w) == nil
	}
	return false
}

// largestJob returns the workload of the given class with the most
// jobs on s (name-ordered ties, via the cluster's allocation-free
// scan).
func (wa *WaxAware) largestJob(s *cluster.Server, class workload.Class) (workload.Workload, bool) {
	return s.LargestJob(class)
}

// Place implements sched.Scheduler using the Section III-B cascade.
func (wa *WaxAware) Place(w workload.Workload) (*cluster.Server, error) {
	if w.Class == workload.Hot {
		return wa.placeHot(w)
	}
	return wa.placeCold(w)
}

// meltTarget returns the hot-group server that should receive hot load
// to maximize wax melting, or nil if none qualifies. Within the base
// (Equation-1) group, load spreads evenly across servers that can
// still melt wax, exactly like VMT-TA. Within the extension region,
// load is *concentrated* fill-first in ID order: a freshly added
// server only melts wax if it is driven above the melting temperature,
// so spreading the surplus thinly would melt nothing (Section III-B:
// "moves the additional load to the newly added server").
//
// excludeID (−1 for none) is never returned: its waxCanMeltMore bit is
// cleared for the two queries and restored after.
func (wa *WaxAware) meltTarget(w workload.Workload, excludeID int) *cluster.Server {
	m := wa.bits()
	var saved uint8
	if excludeID >= 0 {
		saved = m[excludeID]
		m[excludeID] &^= waxCanMeltMore
	}
	base := wa.effBase
	if base > wa.g.hotSize {
		base = wa.g.hotSize
	}
	s := wa.g.leastBusy(0, base, w, m, waxCanMeltMore)
	for i := base; s == nil && i < wa.g.hotSize; i++ {
		if m[i]&waxCanMeltMore != 0 && wa.g.c.Server(i).FreeCores() > 0 {
			s = wa.g.c.Server(i)
		}
	}
	if excludeID >= 0 {
		m[excludeID] = saved
	}
	return s
}

func (wa *WaxAware) placeHot(w workload.Workload) (*cluster.Server, error) {
	n := wa.g.c.Len()
	// 1. A hot-group server that can melt more wax (below the wax
	//    threshold or below the melting temperature).
	if s := wa.meltTarget(w, -1); s != nil {
		return s, nil
	}
	// 2. Extend the hot group from the cold group sequentially until
	//    it includes such a server (sudden load spikes).
	for wa.g.hotSize < n {
		wa.g.hotSize++
		added := wa.g.c.Server(wa.g.hotSize - 1)
		if added.FreeCores() > 0 && wa.canMeltMore(added) {
			return added, nil
		}
	}
	// 3. Corner case with every server in the hot group: any server
	//    below the melted threshold, then any remaining server.
	if s := wa.g.leastBusy(0, n, w, wa.bits(), waxNotMelted); s != nil {
		return s, nil
	}
	if s := wa.g.leastBusy(0, n, w, nil, 0); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoCapacity
}

func (wa *WaxAware) placeCold(w workload.Workload) (*cluster.Server, error) {
	n := wa.g.c.Len()
	// 1. The cold group.
	if s := wa.g.leastBusy(wa.g.hotSize, n, w, nil, 0); s != nil {
		return s, nil
	}
	// 2. A hot-group server already above the melted threshold and the
	//    melting temperature — minimal thermal impact.
	if s := wa.g.leastBusy(0, wa.g.hotSize, w, wa.bits(), waxMolten); s != nil {
		return s, nil
	}
	// 3. Any remaining hot-group server.
	if s := wa.g.leastBusy(0, wa.g.hotSize, w, nil, 0); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoCapacity
}

// SelectRemoval implements sched.Scheduler. Falling load sheds first
// from servers whose eviction least disturbs stored heat: spilled jobs
// in the wrong group, then hot-group servers that are not melting
// anyway (below the melting temperature), then the most-loaded server
// in the job's group — so melted servers keep just enough load to
// stay molten.
func (wa *WaxAware) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	n := wa.g.c.Len()
	if w.Class == workload.Hot {
		// Spilled hot jobs in the cold group first.
		if s := wa.g.mostBusyWith(wa.g.hotSize, n, w, nil, 0); s != nil {
			return s, nil
		}
		// Then the same servers placements target (those still able to
		// melt wax): minute-scale churn cycles within that set, so
		// fully melted servers keep the load holding their wax molten.
		if s := wa.g.mostBusyWith(0, wa.g.hotSize, w, wa.bits(), waxCanMeltMore); s != nil {
			return s, nil
		}
		if s := wa.g.mostBusyWith(0, wa.g.hotSize, w, nil, 0); s != nil {
			return s, nil
		}
		return nil, sched.ErrNoJob
	}
	// Cold jobs: spilled into the hot group first, then cold group.
	if s := wa.g.mostBusyWith(0, wa.g.hotSize, w, nil, 0); s != nil {
		return s, nil
	}
	if s := wa.g.mostBusyWith(wa.g.hotSize, n, w, nil, 0); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoJob
}
