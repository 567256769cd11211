package core

import (
	"fmt"
	"testing"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// indexServers is a cluster size at or above the placement-index
// crossover, and not a power of two, so the trees have padding leaves.
const indexServers = 613

// oracleIndex stands in for the placement index inside groups: every
// query goes to the index and to the linear scan from the same rotation
// start, and the test fails unless both return the same server.
type oracleIndex struct {
	t       *testing.T
	c       *cluster.Cluster
	x       *cluster.PlacementIndex
	queries int
}

func (o *oracleIndex) LeastBusy(w, lo, hi, from int) *cluster.Server {
	o.t.Helper()
	got := o.x.LeastBusy(w, lo, hi, from)
	o.check("LeastBusy", w, lo, hi, from, got, scanLeastBusy(o.c.Servers(), lo, hi, from, w, nil))
	return got
}

func (o *oracleIndex) MostBusyWith(w, lo, hi, from int) *cluster.Server {
	o.t.Helper()
	got := o.x.MostBusyWith(w, lo, hi, from)
	o.check("MostBusyWith", w, lo, hi, from, got, scanMostBusyWith(o.c.Servers(), lo, hi, from, w, nil))
	return got
}

func (o *oracleIndex) check(op string, w, lo, hi, from int, got, want *cluster.Server) {
	o.t.Helper()
	o.queries++
	if got != want {
		o.t.Fatalf("%s(workload %d, [%d,%d), from %d): index gives %s, scan gives %s",
			op, w, lo, hi, from, serverName(got), serverName(want))
	}
}

func serverName(s *cluster.Server) string {
	if s == nil {
		return "nil"
	}
	return fmt.Sprintf("server %d", s.ID())
}

// newIndexedCluster builds a paper cluster of indexServers servers and
// checks that it gets a placement index.
func newIndexedCluster(t *testing.T) (*cluster.Cluster, *cluster.PlacementIndex) {
	t.Helper()
	c := newCluster(t, indexServers)
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

// The placement index makes the same decisions as the linear scan. Seeded
// churn drives VMT-TA and VMT-WA over one cluster that already held jobs
// when its index was built: policy and direct placements and evictions,
// single-server and whole-rack crashes and repairs, GV retunes,
// fault-driven hot-group resizes, and VMT-WA migrations. Every unfiltered
// group query is answered by the index and checked against the scan from
// the same cursor, and after every batch each tree node must equal a
// from-scratch rebuild.
func TestPlacementIndexMatchesScan(t *testing.T) {
	const (
		rack    = 40
		batches = 48
		ops     = 1000
	)
	mix := []workload.Workload{
		workload.WebSearch, workload.DataCaching, workload.VideoEncoding,
		workload.VirusScan, workload.Clustering,
	}
	c := newCluster(t, indexServers)
	rng := stats.NewRNG(13)
	// Start at about three quarters of the cores busy, so churn reaches
	// full servers, full groups and spills.
	for i := 0; i < 24*indexServers; i++ {
		s := c.Server(rng.Intn(indexServers))
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
	x := c.PlacementIndex()
	if x == nil {
		t.Fatalf("no placement index at %d servers; raise indexServers to the crossover", indexServers)
	}
	if err := x.Verify(); err != nil {
		t.Fatalf("index built over existing jobs: %v", err)
	}
	oracle := &oracleIndex{t: t, c: c, x: x}
	ta.g.idx, wa.g.idx = oracle, oracle
	policies := []Tunable{ta, wa}
	// A band of servers inside VMT-WA's base hot group reports melted
	// wax and runs hot, so VMT-WA extends its group and migrates load
	// off them.
	for id := 100; id < 140; id++ {
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
		for i := 0; i < ops; i++ {
			w := mix[rng.Intn(len(mix))]
			p := policies[rng.Intn(len(policies))]
			switch r := rng.Intn(10); {
			case r == 9:
				s := c.Server(rng.Intn(indexServers))
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
		}
		switch b % 6 {
		case 0:
			c.MarkFailed(rng.Intn(indexServers))
		case 1:
			for id := 0; id < indexServers; id++ {
				if c.Server(id).Failed() && rng.Intn(2) == 0 {
					c.MarkRepaired(id)
				}
			}
		case 2:
			lo := rack * rng.Intn(indexServers/rack)
			for id := lo; id < lo+rack; id++ {
				c.MarkFailed(id)
			}
		case 3:
			lo := rack * rng.Intn(indexServers/rack)
			for id := lo; id < lo+rack; id++ {
				c.MarkRepaired(id)
			}
		case 4:
			policies[rng.Intn(len(policies))].SetGV(float64(14 + rng.Intn(17)))
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Step(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		now += 3 * time.Minute
		for _, p := range policies {
			p.Tick(now)
		}
		if err := x.Verify(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	if oracle.queries < batches*ops/2 {
		t.Errorf("only %d index queries checked", oracle.queries)
	}
	if counter("sched_migrations") == 0 || counter("sched_hot_group_resizes") == 0 {
		t.Errorf("churn never migrated (%d) or resized (%d)",
			counter("sched_migrations"), counter("sched_hot_group_resizes"))
	}
	t.Logf("%d index queries, %d migrations, %d resizes", oracle.queries,
		counter("sched_migrations"), counter("sched_hot_group_resizes"))
}

// The index's boundary cases, each checked against the scan for every
// workload and rotation start: an empty range, an all-full range, a
// one-server range, and from = hi−1.
func TestPlacementIndexEdgeCases(t *testing.T) {
	c, x := newIndexedCluster(t)
	o := &oracleIndex{t: t, c: c, x: x}
	w := c.WorkloadIndex(workload.WebSearch)
	v := c.WorkloadIndex(workload.VirusScan)
	// Servers [200,210) are full, [210,220) hold a few jobs.
	for id := 200; id < 210; id++ {
		fillServer(t, c, id, workload.WebSearch, c.Server(id).Cores())
	}
	for id := 210; id < 220; id++ {
		fillServer(t, c, id, workload.VirusScan, id%4)
	}
	queries := func(lo, hi int) {
		for _, wi := range []int{w, v} {
			for from := lo; from < hi; from++ {
				o.LeastBusy(wi, lo, hi, from)
				o.MostBusyWith(wi, lo, hi, from)
			}
		}
	}
	if s := x.LeastBusy(w, 50, 50, 50); s != nil {
		t.Fatalf("empty range placed on %s", serverName(s))
	}
	if s := x.MostBusyWith(w, 50, 50, 50); s != nil {
		t.Fatalf("empty range evicted from %s", serverName(s))
	}
	if s := o.LeastBusy(w, 200, 210, 203); s != nil {
		t.Fatalf("all-full range placed on %s", serverName(s))
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
			o.LeastBusy(wi, r[0], r[1], r[1]-1)
			o.MostBusyWith(wi, r[0], r[1], r[1]-1)
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
	if s := g.leastBusy(0, 0, workload.WebSearch, nil); s != nil || g.cursor != 0 {
		t.Fatalf("empty hot group: %s, cursor %d", serverName(s), g.cursor)
	}
}
