package sched

import (
	"math"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// Guard is the defensive input-validation layer between the servers'
// self-reported telemetry and the schedulers that act on it. Byzantine
// fault plans can make a server lie about its utilization or melt
// fraction while staying inside the plausible [0, 1] range — lies no
// range clamp can catch. The guard cross-checks each report against
// physics the reporter does not control:
//
//   - Utilization vs. power residual: the PDU-measured power draw is
//     authoritative. An honest server's dynamic draw (power minus
//     idle) must land between claimed-busy-cores × the cheapest
//     per-core wattage in the mix and claimed-busy-cores × the most
//     expensive one. A report outside that envelope is physically
//     inconsistent with the measured draw. When the draw sits at the
//     nameplate peak the dynamic component is censored by the cap and
//     the check abstains.
//
//   - Melt-fraction slew rate: wax melts no faster than the air→wax
//     conductance can deliver heat against the latent capacity of the
//     deployed volume, and the air side can sustain at most the
//     nameplate power over the inlet. A reported melt fraction moving
//     faster than twice that physical ceiling per tick is implausible
//     regardless of its absolute value. The baseline resets across a
//     server's crash/repair (a repaired estimator legitimately jumps
//     when it re-anchors).
//
// Persistent violations (guardStrikeLimit strikes without an
// intervening clean window) quarantine the server's reports:
// cluster.Server.SetReportsQuarantined flips, sched_reports_quarantined
// counts the transition, and VMT-WA's health scan degrades the server
// to trust-free temperature-ordered placement until the reports have
// been clean for guardCleanWindow consecutive ticks. The guard runs on
// the sequential fault band right after the injector, reads no RNG,
// and allocates nothing after construction, so it preserves
// bit-identity for every PhysicsWorkers setting.
type Guard struct {
	c *cluster.Cluster

	// Per-core dynamic power envelope across the workload mix,
	// already scaled by the server spec's PowerScale. powerCheck is
	// false when the mix is empty.
	minCoreW, maxCoreW float64
	powerCheck         bool

	idleW, peakW float64
	// maxMeltDelta is the per-tick plausibility bound on reported
	// melt-fraction movement.
	maxMeltDelta float64

	state []guardState

	quarantined uint64
	quarCount   *telemetry.Counter
}

// guardState is one server's strike bookkeeping.
type guardState struct {
	strikes   int
	clean     int
	lastMelt  float64
	hasLast   bool
	wasFailed bool
}

const (
	// guardStrikeLimit is how many violations (without an intervening
	// clean window) quarantine a reporter.
	guardStrikeLimit = 3
	// guardCleanWindow is how many consecutive clean ticks forgive
	// accumulated strikes and release a quarantined reporter.
	guardCleanWindow = 10
	// guardPowerEpsW absorbs float rounding between the incrementally
	// maintained power ledger and the utilization-implied bound.
	guardPowerEpsW = 0.5
	// guardMeltEps absorbs rounding in the melt-slew comparison.
	guardMeltEps = 1e-9
)

// NewGuard builds a guard over c for the given workload mix, checking
// once per step interval. The guard reads every server's melt
// estimate, so it enables c's estimates; it must be built before c's
// first Step, and panics otherwise.
func NewGuard(c *cluster.Cluster, mix *workload.Mix, step time.Duration, reg *telemetry.Registry) *Guard {
	if err := c.EnableEstimates(); err != nil {
		panic(err)
	}
	g := &Guard{
		c:         c,
		state:     make([]guardState, c.Len()),
		quarCount: reg.Counter("sched_reports_quarantined"),
	}
	spec := c.Config().Server
	mat := c.Config().Material
	g.idleW = spec.IdlePowerW
	g.peakW = spec.PeakPowerW
	if mix != nil {
		for _, e := range mix.Entries() {
			w := e.Workload.PerCorePowerW() * spec.PowerScale
			if !g.powerCheck || w < g.minCoreW {
				g.minCoreW = w
			}
			if !g.powerCheck || w > g.maxCoreW {
				g.maxCoreW = w
			}
			g.powerCheck = true
		}
	}
	// Physical melt-rate ceiling: the air node cannot sustain more
	// than peak power over the inlet (steady-state headroom
	// peak/K_air), the wax link delivers at most K_wax × that
	// headroom, and the pack absorbs latent × density × volume per
	// unit fraction. Factor 2 of margin over the steady-state bound
	// covers transients; honest estimators stay well inside it.
	headroomK := spec.PeakPowerW / spec.AirConductanceWPerK
	latentJ := mat.LatentHeatJPerKg * mat.DensityKgPerL * spec.WaxVolumeL
	g.maxMeltDelta = 2*spec.WaxConductanceWPerK*headroomK/latentJ*step.Seconds() + guardMeltEps
	return g
}

// Quarantined returns how many quarantine transitions have fired.
func (g *Guard) Quarantined() uint64 { return g.quarantined }

// Tick revalidates every server's reports against the physical
// cross-checks and updates quarantine state. Runs on the sequential
// fault band after the injector's mutations, so the scheduler band
// that follows sees settled trust decisions.
func (g *Guard) Tick(time.Duration) {
	for i, s := range g.c.Servers() {
		st := &g.state[i]
		if s.Failed() {
			// A crashed server reports nothing worth judging; forget
			// the melt baseline so the repair re-anchor is not scored
			// as a violation.
			st.hasLast = false
			st.wasFailed = true
			continue
		}
		violated := false
		if g.powerCheck {
			p := s.PowerW()
			if p < g.peakW-guardPowerEpsW {
				dyn := p - g.idleW
				claimed := s.ReportedUtilization() * float64(s.Cores())
				if claimed*g.minCoreW > dyn+guardPowerEpsW ||
					claimed*g.maxCoreW < dyn-guardPowerEpsW {
					violated = true
				}
			}
		}
		frac := s.ReportedMeltFrac()
		if st.wasFailed {
			st.wasFailed = false
			st.hasLast = false
		}
		if st.hasLast {
			if math.Abs(frac-st.lastMelt) > g.maxMeltDelta {
				violated = true
			}
		}
		st.lastMelt, st.hasLast = frac, true

		if violated {
			st.strikes++
			st.clean = 0
		} else {
			st.clean++
			if st.clean >= guardCleanWindow {
				st.strikes = 0
			}
		}
		if q := s.ReportsQuarantined(); !q && st.strikes >= guardStrikeLimit {
			s.SetReportsQuarantined(true)
			g.quarantined++
			g.quarCount.Inc()
		} else if q && st.strikes == 0 && st.clean >= guardCleanWindow {
			s.SetReportsQuarantined(false)
		}
	}
}
