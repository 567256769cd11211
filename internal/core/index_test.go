package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/sched"
	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// indexServers is a cluster size at or above the placement-index
// crossover, and not a power of two, so the trees have padding leaves.
const indexServers = 613

// scanLeastBusy is the reference for leastBusy: a linear scan of
// servers[lo:hi] through the *Server API, visiting from first and
// wrapping to lo (lo ≤ from < hi), for workload index wi. Among the
// servers with a free core whose mask byte has a bit of want (all of
// them for a nil mask), it keeps the first with the fewest jobs of wi,
// then the fewest busy cores.
func scanLeastBusy(servers []*cluster.Server, lo, hi, from, wi int, mask []uint8, want uint8) *cluster.Server {
	var best *cluster.Server
	bestJobs := 0
	idx := from
	for i := lo; i < hi; i++ {
		k := idx
		idx++
		if idx == hi {
			idx = lo
		}
		if mask != nil && mask[k]&want == 0 {
			continue
		}
		s := servers[k]
		if s.FreeCores() == 0 {
			continue
		}
		j := s.JobsAt(wi)
		if best == nil || j < bestJobs ||
			(j == bestJobs && s.BusyCores() < best.BusyCores()) {
			best, bestJobs = s, j
		}
	}
	return best
}

// scanMostBusyWith is the reference for mostBusyWith, in
// scanLeastBusy's visit order: the first admitted server with the most
// jobs of wi, failed or not.
func scanMostBusyWith(servers []*cluster.Server, lo, hi, from, wi int, mask []uint8, want uint8) *cluster.Server {
	var best *cluster.Server
	bestJobs := 0
	idx := from
	for i := lo; i < hi; i++ {
		k := idx
		idx++
		if idx == hi {
			idx = lo
		}
		if mask != nil && mask[k]&want == 0 {
			continue
		}
		s := servers[k]
		j := s.JobsAt(wi)
		if j == 0 {
			continue
		}
		if best == nil || j > bestJobs {
			best, bestJobs = s, j
		}
	}
	return best
}

// checkPower fails t unless every server's draw, which PowerW reads
// from the cluster's power column, bit-equals the formula PowerW
// evaluated over the server's fields before the column existed: 0
// while failed, else idle power plus the dynamic power of its jobs,
// capped at the nameplate peak.
func checkPower(t *testing.T, c *cluster.Cluster, format string, args ...any) {
	t.Helper()
	spec := c.Config().Server
	for _, s := range c.Servers() {
		want := 0.0
		if !s.Failed() {
			want = spec.IdlePowerW + s.DynamicPowerW()
			if want > spec.PeakPowerW {
				want = spec.PeakPowerW
			}
		}
		if got := s.PowerW(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: server %d draws %v in the power column, its fields give %v (failed %v, busy %d)",
				fmt.Sprintf(format, args...), s.ID(), got, want, s.Failed(), s.BusyCores())
		}
	}
}

// oracleQueries stands in for the cluster inside groups: every query
// goes to the cluster (placement index or slab scan) and to the
// reference scan from the same rotation start, and the test fails
// unless both return the same server.
type oracleQueries struct {
	t               *testing.T
	c               *cluster.Cluster
	queries, masked int
}

func (o *oracleQueries) LeastBusy(w, lo, hi, from int, mask []uint8, want uint8) *cluster.Server {
	o.t.Helper()
	got := o.c.LeastBusy(w, lo, hi, from, mask, want)
	o.check("LeastBusy", w, lo, hi, from, mask, want, got, scanLeastBusy(o.c.Servers(), lo, hi, from, w, mask, want))
	return got
}

func (o *oracleQueries) MostBusyWith(w, lo, hi, from int, mask []uint8, want uint8) *cluster.Server {
	o.t.Helper()
	got := o.c.MostBusyWith(w, lo, hi, from, mask, want)
	o.check("MostBusyWith", w, lo, hi, from, mask, want, got, scanMostBusyWith(o.c.Servers(), lo, hi, from, w, mask, want))
	return got
}

func (o *oracleQueries) check(op string, w, lo, hi, from int, mask []uint8, want uint8, got, ref *cluster.Server) {
	o.t.Helper()
	o.queries++
	filter := "unmasked"
	if mask != nil {
		o.masked++
		filter = fmt.Sprintf("mask bit %03b", want)
	}
	if got != ref {
		o.t.Fatalf("%s(workload %d, [%d,%d), from %d, %s): cluster gives %s, reference scan gives %s",
			op, w, lo, hi, from, filter, serverName(got), serverName(ref))
	}
}

func serverName(s *cluster.Server) string {
	if s == nil {
		return "nil"
	}
	return fmt.Sprintf("server %d", s.ID())
}

// newIndexedCluster builds a paper cluster of indexServers servers and
// checks that its first unfiltered query gives it a placement index.
func newIndexedCluster(t *testing.T) (*cluster.Cluster, *cluster.PlacementIndex) {
	t.Helper()
	c := newCluster(t, indexServers)
	c.LeastBusy(c.WorkloadIndex(workload.WebSearch), 0, indexServers, 0, nil, 0)
	x := c.PlacementIndex()
	if x == nil {
		t.Fatalf("no placement index at %d servers; raise indexServers to the crossover", indexServers)
	}
	return c, x
}

// meltedReports makes a server claim fully melted wax, so VMT-WA grows
// its hot group and migrates load without hours of simulated physics.
type meltedReports struct{}

func (meltedReports) FilterUtilization(u float64) float64 { return u }
func (meltedReports) FilterMeltFrac(float64) float64      { return 1 }

// frozenReports makes a server claim solid wax and a half-idle CPU
// whatever its true state.
type frozenReports struct{}

func (frozenReports) FilterUtilization(float64) float64 { return 0.5 }
func (frozenReports) FilterMeltFrac(float64) float64    { return 0 }

// lateBatch is a workload that none of the tests' mixes start with, so
// its first use interns it mid-run.
var lateBatch = workload.Workload{Name: "LateBatch", CPUPowerW: 48, Class: workload.Hot}

// The cluster's group queries make the same decisions as the
// reference scan. At 8 and 100 servers (slab scans) and 613
// (placement index for unfiltered queries, built by the first one),
// seeded churn drives VMT-TA and VMT-WA over one cluster that already
// held jobs when its index was built: policy and direct placements
// and evictions near full load, single-server and whole-rack crashes
// and repairs, GV retunes, fault-driven hot-group resizes, VMT-WA
// migrations, Byzantine reports (servers lying melted, one band
// starting mid-batch, servers lying solid, and quarantines), and a
// workload first interned mid-run. Every group query, masked or not,
// is checked against the reference scan from the same cursor, every
// read of VMT-WA's wax-state mask against the live predicates, after
// every mutator every server's entry in the power column against the
// draw its fields give (checkPower), and after every batch each tree
// node must equal a from-scratch rebuild.
func TestPlacementIndexMatchesScan(t *testing.T) {
	for _, n := range []int{8, 100, indexServers} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			matchScan(t, n)
		})
	}
}

func matchScan(t *testing.T, n int) {
	const (
		batches = 48
		ops     = 1000
	)
	rack := min(40, n/4)
	// band scales a server range of the 613-server layout to n servers,
	// keeping it non-empty.
	band := func(lo, hi int) (int, int) {
		lo, hi = lo*n/indexServers, hi*n/indexServers
		return lo, max(hi, lo+1)
	}
	mix := []workload.Workload{
		workload.WebSearch, workload.DataCaching, workload.VideoEncoding,
		workload.VirusScan, workload.Clustering,
	}
	c := newCluster(t, n)
	rng := stats.NewRNG(13)
	// Start at about three quarters of the cores busy, so churn reaches
	// full servers, full groups and spills.
	for i := 0; i < 24*n; i++ {
		s := c.Server(rng.Intn(n))
		if s.FreeCores() > 0 {
			if err := s.Place(mix[rng.Intn(len(mix))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := telemetry.NewRegistry()
	ta, err := NewThermalAware(c, Config{GV: 22, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	wa, err := NewWaxAware(c, Config{GV: 22, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// The policies' first unfiltered query builds the index, over the
	// jobs already placed.
	verify := func(when string) {
		t.Helper()
		if x := c.PlacementIndex(); x != nil {
			if err := x.Verify(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
	}
	oracle := &oracleQueries{t: t, c: c}
	ta.g.q, wa.g.q = oracle, oracle
	mask := checkMaskLive(t, wa)
	policies := []Tunable{ta, wa}
	// A band of servers inside VMT-WA's base hot group reports melted
	// wax and runs hot, so VMT-WA extends its group and migrates load
	// off them.
	lo, hi := band(100, 140)
	for id := lo; id < hi; id++ {
		c.Server(id).SetReportFilter(meltedReports{})
		c.Server(id).SetInletTempC(40)
	}

	now := time.Duration(0)
	for b := 0; b < batches; b++ {
		// Load rises for four batches, then falls for four.
		placeTenths := 7
		if b%8 >= 4 {
			placeTenths = 3
		}
		switch b {
		case batches / 4:
			// Servers lie that their wax is solid, and the guard's
			// quarantine (here by hand) distrusts a band.
			lo, hi := band(200, 215)
			for id := lo; id < hi; id++ {
				c.Server(id).SetReportFilter(frozenReports{})
			}
			lo, hi = band(40, 60)
			for id := lo; id < hi; id++ {
				c.Server(id).SetReportsQuarantined(true)
			}
		case batches / 3:
			mix = append(mix, lateBatch)
		case 3 * batches / 4:
			lo, hi := band(40, 60)
			for id := lo; id < hi; id++ {
				c.Server(id).SetReportsQuarantined(false)
			}
		}
		for i := 0; i < ops; i++ {
			if b == batches/2 && i == ops/2 {
				// Mid-band, a second band starts reporting melted wax:
				// the rest of the band's queries must see it before the
				// next Tick.
				lo, hi := band(300, 320)
				for id := lo; id < hi; id++ {
					c.Server(id).SetReportFilter(meltedReports{})
				}
			}
			w := mix[rng.Intn(len(mix))]
			p := policies[rng.Intn(len(policies))]
			switch r := rng.Intn(10); {
			case r == 9:
				s := c.Server(rng.Intn(n))
				if s.FreeCores() > 0 && rng.Intn(2) == 0 {
					_ = s.Place(w)
				} else if s.JobsAt(c.WorkloadIndex(w)) > 0 {
					_ = s.Remove(w)
				}
			case r < placeTenths:
				if s, err := p.Place(w); err == nil {
					if err := s.Place(w); err != nil {
						t.Fatal(err)
					}
				}
			default:
				if s, err := p.SelectRemoval(w); err == nil {
					if err := s.Remove(w); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkPower(t, c, "batch %d op %d", b, i)
		}
		switch b % 6 {
		case 0:
			c.MarkFailed(rng.Intn(n))
		case 1:
			for id := 0; id < n; id++ {
				if c.Server(id).Failed() && rng.Intn(2) == 0 {
					c.MarkRepaired(id)
				}
			}
		case 2:
			lo := rack * rng.Intn(n/rack)
			for id := lo; id < lo+rack; id++ {
				c.MarkFailed(id)
			}
		case 3:
			lo := rack * rng.Intn(n/rack)
			for id := lo; id < lo+rack; id++ {
				c.MarkRepaired(id)
			}
		case 4:
			policies[rng.Intn(len(policies))].SetGV(float64(14 + rng.Intn(17)))
		}
		checkPower(t, c, "batch %d", b)
		for i := 0; i < 3; i++ {
			if _, err := c.Step(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		now += 3 * time.Minute
		for _, p := range policies {
			p.Tick(now)
		}
		checkPower(t, c, "batch %d after Tick", b)
		verify(fmt.Sprintf("batch %d", b))
	}
	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	if (c.PlacementIndex() != nil) != (n >= indexServers) {
		t.Errorf("%d servers: placement index present = %v", n, c.PlacementIndex() != nil)
	}
	if oracle.queries < batches*ops/2 || oracle.masked == 0 {
		t.Errorf("only %d queries checked, %d of them masked", oracle.queries, oracle.masked)
	}
	if c.JobCount(lateBatch) == 0 {
		t.Errorf("the workload interned mid-run has no jobs")
	}
	if counter("sched_migrations") == 0 || counter("sched_hot_group_resizes") == 0 {
		t.Errorf("churn never migrated (%d) or resized (%d)",
			counter("sched_migrations"), counter("sched_hot_group_resizes"))
	}
	t.Logf("%d queries (%d masked), %d mask reads, %d migrations, %d resizes", oracle.queries, oracle.masked, mask.reads,
		counter("sched_migrations"), counter("sched_hot_group_resizes"))
}

// powerChecked is the policy a manager sees in the power-column test:
// before each placement or eviction choice, so after every job move
// the manager made before it, it checks the power column.
type powerChecked struct {
	sched.Scheduler
	t         *testing.T
	c         *cluster.Cluster
	decisions int
}

func (p *powerChecked) Place(w workload.Workload) (*cluster.Server, error) {
	p.t.Helper()
	p.decisions++
	checkPower(p.t, p.c, "before placement %d", p.decisions)
	return p.Scheduler.Place(w)
}

func (p *powerChecked) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	p.t.Helper()
	p.decisions++
	checkPower(p.t, p.c, "before eviction %d", p.decisions)
	return p.Scheduler.SelectRemoval(w)
}

// Both managers keep the power column exact through their own job
// moves: at 8, 100 and 613 servers, a load manager over VMT-TA and a
// stream manager over VMT-WA reconcile a bursty trace through seeded
// crashes, each evacuated by the manager, and repairs. Every server's
// column entry must bit-equal the draw its fields give (checkPower)
// before every placement and eviction choice and after every crash,
// evacuation, repair and Reconcile.
func TestPowerColumnMatchesFields(t *testing.T) {
	for _, n := range []int{8, 100, indexServers} {
		for _, manager := range []string{"load", "stream"} {
			t.Run(fmt.Sprintf("n=%d/%s", n, manager), func(t *testing.T) {
				t.Parallel()
				powerRun(t, n, manager)
			})
		}
	}
}

func powerRun(t *testing.T, n int, manager string) {
	const ticks = 120
	c := newCluster(t, n)
	var (
		pol sched.Scheduler
		err error
	)
	if manager == "load" {
		pol, err = NewThermalAware(c, Config{GV: 22})
	} else {
		pol, err = NewWaxAware(c, Config{GV: 22})
	}
	if err != nil {
		t.Fatal(err)
	}
	checked := &powerChecked{Scheduler: pol, t: t, c: c}
	mix := workload.PaperMix()
	src := workload.NewBurstySource(uint64(n), 20*time.Minute, 0.5, 0.95, 0.4)
	var m interface {
		Reconcile(time.Duration) error
		Evacuate(*cluster.Server) (moved, lost int, err error)
	}
	if manager == "load" {
		m, err = sched.NewLoadManager(c, mix, src, checked)
	} else {
		m, err = sched.NewStreamManager(c, mix, src, checked, sched.DefaultTaskDurations(), uint64(n))
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(uint64(n))
	evacuated, repaired := 0, 0
	for k := 0; k <= ticks; k++ {
		if k > 0 {
			if _, err := c.Step(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if id := rng.Intn(n); k > 0 && rng.Intn(3) == 0 && !c.Server(id).Failed() {
			c.MarkFailed(id)
			checkPower(t, c, "tick %d: crash of server %d", k, id)
			moved, _, err := m.Evacuate(c.Server(id))
			if err != nil {
				t.Fatal(err)
			}
			evacuated += moved
			checkPower(t, c, "tick %d: evacuation of server %d", k, id)
		}
		for id := 0; id < n; id++ {
			if c.Server(id).Failed() && rng.Intn(10) == 0 {
				c.MarkRepaired(id)
				repaired++
				checkPower(t, c, "tick %d: repair of server %d", k, id)
			}
		}
		if err := m.Reconcile(time.Duration(k) * time.Minute); err != nil {
			t.Fatal(err)
		}
		checkPower(t, c, "tick %d: after Reconcile", k)
	}
	if evacuated == 0 || repaired == 0 || checked.decisions == 0 {
		t.Errorf("churn evacuated %d jobs, repaired %d servers, made %d decisions", evacuated, repaired, checked.decisions)
	}
	t.Logf("%d decisions, %d jobs evacuated, %d repairs", checked.decisions, evacuated, repaired)
}

// The group queries' boundary cases, each checked against the
// reference scan for every workload, rotation start and filter: an
// empty range, an all-full range, a one-server range, and from = hi−1,
// on the placement index and on the masked slab scans.
func TestPlacementIndexEdgeCases(t *testing.T) {
	c, x := newIndexedCluster(t)
	o := &oracleQueries{t: t, c: c}
	w := c.WorkloadIndex(workload.WebSearch)
	v := c.WorkloadIndex(workload.VirusScan)
	// Servers [200,210) are full, [210,220) hold a few jobs.
	for id := 200; id < 210; id++ {
		fillServer(t, c, id, workload.WebSearch, c.Server(id).Cores())
	}
	for id := 210; id < 220; id++ {
		fillServer(t, c, id, workload.VirusScan, id%4)
	}
	// Masks: every other server, every server, and none.
	alternate := make([]uint8, indexServers)
	for i := range alternate {
		alternate[i] = uint8(1 + i%2)
	}
	filters := []struct {
		mask []uint8
		want uint8
	}{{nil, 0}, {alternate, 1}, {alternate, 2}, {alternate, 3}, {alternate, 4}}
	queries := func(lo, hi int) {
		for _, wi := range []int{w, v} {
			for from := lo; from < hi; from++ {
				for _, f := range filters {
					o.LeastBusy(wi, lo, hi, from, f.mask, f.want)
					o.MostBusyWith(wi, lo, hi, from, f.mask, f.want)
				}
			}
		}
	}
	for _, f := range filters {
		if s := c.LeastBusy(w, 50, 50, 50, f.mask, f.want); s != nil {
			t.Fatalf("empty range placed on %s", serverName(s))
		}
		if s := c.MostBusyWith(w, 50, 50, 50, f.mask, f.want); s != nil {
			t.Fatalf("empty range evicted from %s", serverName(s))
		}
		if s := o.LeastBusy(w, 200, 210, 203, f.mask, f.want); s != nil {
			t.Fatalf("all-full range placed on %s", serverName(s))
		}
	}
	queries(200, 210) // all full
	queries(205, 206) // one server, full
	queries(213, 214) // one server with jobs
	queries(0, 1)     // first server, empty
	queries(indexServers-1, indexServers)
	queries(195, 225) // straddles full, loaded and empty servers
	// from = hi−1 over ranges ending at the last server and around the
	// root's two halves (leaves 0–511 and 512–1023).
	for _, r := range [][2]int{{0, indexServers}, {200, 215}, {511, 513}, {0, 512}, {512, indexServers}} {
		for _, wi := range []int{w, v} {
			for _, f := range filters {
				o.LeastBusy(wi, r[0], r[1], r[1]-1, f.mask, f.want)
				o.MostBusyWith(wi, r[0], r[1], r[1]-1, f.mask, f.want)
			}
		}
	}
	c.MarkFailed(213)
	queries(210, 220)
	if err := x.Verify(); err != nil {
		t.Fatal(err)
	}
	// groups.leastBusy on an empty range returns nil without consuming
	// a rotation step.
	g := newGroups(c, 0)
	if s := g.leastBusy(0, 0, workload.WebSearch, nil, 0); s != nil || g.cursor != 0 {
		t.Fatalf("empty hot group: %s, cursor %d", serverName(s), g.cursor)
	}
}
