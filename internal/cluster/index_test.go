package cluster

import (
	"fmt"
	"math"
	"testing"

	"vmt/internal/stats"
	"vmt/internal/thermal"
	"vmt/internal/workload"
)

// scanLeast is the placement scan, written independently of the key
// slab: the first server in rotation from from with a free core whose
// mask byte has a bit of want (every server for a nil mask), and the
// least (jobs of w, busy cores).
func scanLeast(c *Cluster, w, lo, hi, from int, mask []uint8, want uint8) *Server {
	var best *Server
	for k := 0; k < hi-lo; k++ {
		s := c.servers[lo+(from-lo+k)%(hi-lo)]
		if s.FreeCores() == 0 || mask != nil && mask[s.id]&want == 0 {
			continue
		}
		if best == nil || s.JobsAt(w) < best.JobsAt(w) ||
			(s.JobsAt(w) == best.JobsAt(w) && s.BusyCores() < best.BusyCores()) {
			best = s
		}
	}
	return best
}

// scanMost is the eviction scan: the first admitted server in rotation
// with the most jobs of w, failed or not.
func scanMost(c *Cluster, w, lo, hi, from int, mask []uint8, want uint8) *Server {
	var best *Server
	for k := 0; k < hi-lo; k++ {
		s := c.servers[lo+(from-lo+k)%(hi-lo)]
		if mask != nil && mask[s.id]&want == 0 {
			continue
		}
		if s.JobsAt(w) > 0 && (best == nil || s.JobsAt(w) > best.JobsAt(w)) {
			best = s
		}
	}
	return best
}

// checkKeys fails t unless c's columns hold exactly what the model
// says: every job-slab word jobs<<16, with jobs keyed by server and
// workload, and every header full<<31 | failed<<15 | busy, with busy
// the server's jobs summed over its workloads, failed from failed, and
// full set while the server is failed or busy on every core.
func checkKeys(t *testing.T, c *Cluster, jobs map[[2]int]int, failed map[int]bool, when string) {
	t.Helper()
	stride := len(c.reg.list)
	if len(c.slab) != len(c.servers)*stride || len(c.head) != len(c.servers) {
		t.Fatalf("%s: job slab has %d words and header column %d for %d servers × %d workloads",
			when, len(c.slab), len(c.head), len(c.servers), stride)
	}
	for id := range c.servers {
		busy := 0
		for wi := 0; wi < stride; wi++ {
			n := jobs[[2]int{id, wi}]
			busy += n
			if got := c.slab[id*stride+wi]; got != uint32(n)<<16 {
				t.Fatalf("%s: server %d workload %d slab word %#08x, want %d jobs and nothing else",
					when, id, wi, got, n)
			}
		}
		want := uint32(busy)
		if failed[id] {
			want |= 1<<31 | 1<<15
		}
		if busy == c.cfg.Server.Cores() {
			want |= 1 << 31
		}
		if got := c.head[id]; got != want {
			t.Fatalf("%s: server %d header %#08x, want %#08x (busy %d, failed %v)",
				when, id, got, want, busy, failed[id])
		}
	}
}

// refPowerW is the draw PowerW computed from s's state before the
// power column held it: idle power plus the dynamic power of its jobs,
// capped at the nameplate peak, and 0 while failed.
func refPowerW(s *Server) float64 {
	if s.Failed() {
		return 0
	}
	spec := s.c.Config().Server
	p := spec.IdlePowerW + s.DynamicPowerW()
	if p > spec.PeakPowerW {
		p = spec.PeakPowerW
	}
	return p
}

// checkPower fails t unless every entry of c's power column bit-equals
// refPowerW over its server's state.
func checkPower(t *testing.T, c *Cluster, when string) {
	t.Helper()
	if len(c.pow) != len(c.servers) {
		t.Fatalf("%s: power column has %d entries for %d servers", when, len(c.pow), len(c.servers))
	}
	for id, s := range c.servers {
		if got, want := c.pow[id], refPowerW(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: server %d power column %v, its state gives %v (failed %v, busy %d)",
				when, id, got, want, s.Failed(), s.BusyCores())
		}
	}
}

// At small sizes — one leaf, padded trees, exact powers of two — every
// query over every range and rotation start, masked and unmasked,
// matches the independent scans after each random Place, Remove,
// crash or repair on tiny three-core servers, answered both by the
// placement index (unmasked) and by the slab scan; the trees match a
// rebuild; and after every mutator, interning's relayouts included,
// each job-slab word and header holds the model's state and each
// power-column entry equals the draw its server's state gives. The
// index is built before any workload is interned, so each workload's
// trees are added to a live index.
func TestPlacementIndexSmallClusters(t *testing.T) {
	mix := []workload.Workload{workload.WebSearch, workload.VirusScan, workload.VideoEncoding}
	for _, n := range []int{1, 2, 3, 5, 8, 9} {
		cfg := PaperCluster(n)
		cfg.Server.CPUs, cfg.Server.CoresPerCPU = 1, 3
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.place = newPlacementIndex(c)
		x := c.place
		want := make(map[[2]int]int) // (server, workload) → jobs
		failed := make(map[int]bool)
		mask := make([]uint8, n)
		rng := stats.NewRNG(uint64(n))
		for step := 0; step < 200; step++ {
			id := rng.Intn(n)
			s := c.servers[id]
			w := mix[rng.Intn(len(mix))]
			var op string
			switch rng.Intn(6) {
			case 0, 1, 2:
				op = "Place"
				if s.Place(w) == nil {
					want[[2]int{id, c.WorkloadIndex(w)}]++
				}
			case 3, 4:
				op = "Remove"
				if s.Remove(w) == nil {
					want[[2]int{id, c.WorkloadIndex(w)}]--
				}
			default:
				if failed[id] {
					op = "MarkRepaired"
					c.MarkRepaired(id)
				} else {
					op = "MarkFailed"
					c.MarkFailed(id)
				}
				failed[id] = !failed[id]
			}
			when := fmt.Sprintf("n=%d step %d after %s on server %d", n, step, op, id)
			checkKeys(t, c, want, failed, when)
			checkPower(t, c, when)
			if err := x.Verify(); err != nil {
				t.Fatalf("n=%d step %d: %v", n, step, err)
			}
			for i := range mask {
				mask[i] = uint8(rng.Intn(4))
			}
			for wi := range c.reg.list {
				for id := range c.servers {
					if got := c.servers[id].JobsAt(wi); got != want[[2]int{id, wi}] {
						t.Fatalf("n=%d step %d: server %d has %d jobs of workload %d, want %d",
							n, step, id, got, wi, want[[2]int{id, wi}])
					}
				}
				for lo := 0; lo < n; lo++ {
					for hi := lo + 1; hi <= n; hi++ {
						for from := lo; from < hi; from++ {
							q := fmt.Sprintf("n=%d step %d workload %d [%d,%d) from %d", n, step, wi, lo, hi, from)
							// The unmasked query once from the index and
							// once from the slab.
							for _, idx := range []*PlacementIndex{x, nil} {
								c.place = idx
								if got, want := c.LeastBusy(wi, lo, hi, from, nil, 0), scanLeast(c, wi, lo, hi, from, nil, 0); got != want {
									t.Fatalf("%s, index %v: LeastBusy %v, scan %v", q, idx != nil, got, want)
								}
								if got, want := c.MostBusyWith(wi, lo, hi, from, nil, 0), scanMost(c, wi, lo, hi, from, nil, 0); got != want {
									t.Fatalf("%s, index %v: MostBusyWith %v, scan %v", q, idx != nil, got, want)
								}
							}
							c.place = x
							for want := uint8(1); want <= 2; want++ {
								if got, ref := c.LeastBusy(wi, lo, hi, from, mask, want), scanLeast(c, wi, lo, hi, from, mask, want); got != ref {
									t.Fatalf("%s, mask %v bit %d: LeastBusy %v, scan %v", q, mask, want, got, ref)
								}
								if got, ref := c.MostBusyWith(wi, lo, hi, from, mask, want), scanMost(c, wi, lo, hi, from, mask, want); got != ref {
									t.Fatalf("%s, mask %v bit %d: MostBusyWith %v, scan %v", q, mask, want, got, ref)
								}
							}
						}
					}
				}
			}
		}
	}
}

// A cluster's columns are exact whether or not it has been queried:
// through seeded Place, Remove, crash and repair, and the relayouts of
// interning, on a cluster no group query has touched (round robin's
// case), every job-slab word and header holds the model's state; the
// first query, a masked scan or an unmasked one that builds the index,
// leaves them so, and later moves keep them so.
func TestPlacementIndexColumnsExactAroundFirstQuery(t *testing.T) {
	mix := []workload.Workload{workload.WebSearch, workload.VirusScan, workload.VideoEncoding}
	for _, q := range []struct {
		n    int
		mask []uint8
	}{{100, make([]uint8, 100)}, {indexCrossover, nil}} {
		cfg := PaperCluster(q.n)
		cfg.Server.CPUs, cfg.Server.CoresPerCPU = 1, 4
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[[2]int]int) // (server, workload) → jobs
		failed := make(map[int]bool)
		rng := stats.NewRNG(uint64(q.n))
		churn := func(steps int, when string) {
			for step := 0; step < steps; step++ {
				id := rng.Intn(q.n)
				s := c.servers[id]
				w := mix[rng.Intn(len(mix))]
				switch rng.Intn(6) {
				case 0, 1, 2:
					if s.Place(w) == nil {
						want[[2]int{id, c.WorkloadIndex(w)}]++
					}
				case 3, 4:
					if s.Remove(w) == nil {
						want[[2]int{id, c.WorkloadIndex(w)}]--
					}
				default:
					if failed[id] {
						c.MarkRepaired(id)
					} else {
						c.MarkFailed(id)
					}
					failed[id] = !failed[id]
				}
				checkPower(t, c, fmt.Sprintf("n=%d %s step %d", q.n, when, step))
			}
		}
		churn(20*q.n, "unqueried")
		checkKeys(t, c, want, failed, fmt.Sprintf("n=%d unqueried", q.n))
		if c.PlacementIndex() != nil {
			t.Fatalf("n=%d: index before any query", q.n)
		}
		c.LeastBusy(0, 0, q.n, 0, q.mask, 1)
		checkKeys(t, c, want, failed, fmt.Sprintf("n=%d first query", q.n))
		if (c.PlacementIndex() != nil) != (q.mask == nil) {
			t.Fatalf("n=%d: first query (mask %v) left index %v", q.n, q.mask != nil, c.PlacementIndex() != nil)
		}
		churn(2*q.n, "queried")
		checkKeys(t, c, want, failed, fmt.Sprintf("n=%d after churn", q.n))
		if x := c.PlacementIndex(); x != nil {
			if err := x.Verify(); err != nil {
				t.Fatalf("n=%d: %v", q.n, err)
			}
		}
	}
}

// The index is built only where it pays: by the first unfiltered
// query on a cluster at or above the crossover, once, including on
// servers of ServerSpec.Validate's largest core count. A masked query
// never builds it, and no query does below the crossover.
func TestPlacementIndexBuiltOnlyWhereItWins(t *testing.T) {
	newC := func(n, coresPerCPU int) (*Cluster, int) {
		t.Helper()
		cfg := PaperCluster(n)
		cfg.Server.CPUs, cfg.Server.CoresPerCPU = 1, coresPerCPU
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, c.WorkloadIndex(workload.WebSearch)
	}
	mask := make([]uint8, indexCrossover)
	c, w := newC(indexCrossover-1, 32)
	c.LeastBusy(w, 0, c.Len(), 0, nil, 0)
	c.MostBusyWith(w, 0, c.Len(), 0, nil, 0)
	if c.PlacementIndex() != nil {
		t.Error("index built below the crossover")
	}
	c, w = newC(indexCrossover, thermal.MaxCores)
	if c.PlacementIndex() != nil {
		t.Error("index built before any query")
	}
	c.LeastBusy(w, 0, c.Len(), 0, mask, 1)
	c.MostBusyWith(w, 0, c.Len(), 0, mask, 1)
	if c.PlacementIndex() != nil {
		t.Error("index built by a masked query")
	}
	c.MostBusyWith(w, 0, c.Len(), 0, nil, 0)
	x := c.PlacementIndex()
	c.LeastBusy(w, 0, c.Len(), 0, nil, 0)
	if x == nil || c.PlacementIndex() != x {
		t.Error("index not built once, by the first unfiltered query, at the crossover")
	}
}

// Follow-up queries, the load manager's pattern, are answered from the
// index's memo of recent answers, with the scans' answers: at 613 and
// 2,000 servers, runs of 1–60 consecutive queries of one workload over
// one range, each answer taking a move, match the scans from the same
// rotation start. Place runs place a job on each answer. Evict runs ask
// a spill range and then a primary range, as ThermalAware.SelectRemoval
// does, and evict from the first answer. Between two queries of a run
// comes one of a removal, a repair, a crash, a placement of any
// workload or a change of range, and one run interns a workload midway.
// Every tree matches a rebuild after every run.
// TestPlacementIndexMatchesScan draws a workload and policy per
// operation, so its queries are rarely follow-ups.
func TestPlacementIndexFollowUpQueries(t *testing.T) {
	late := workload.Workload{Name: "LateBatch", CPUPowerW: 48, Class: workload.Hot}
	id := func(s *Server) int {
		if s == nil {
			return -1
		}
		return s.id
	}
	for _, n := range []int{613, 2000} {
		cfg := PaperCluster(n)
		cfg.Server.CPUs, cfg.Server.CoresPerCPU = 1, 8
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mix := []workload.Workload{workload.WebSearch, workload.VirusScan, workload.VideoEncoding}
		rng := stats.NewRNG(uint64(n))
		for range 4 * n {
			c.servers[rng.Intn(n)].Place(mix[rng.Intn(len(mix))])
		}
		c.LeastBusy(0, 0, n, 0, nil, 0)
		x := c.PlacementIndex()
		if x == nil {
			t.Fatalf("n=%d: no placement index", n)
		}
		// query asks the next query of the groups' rotation, as
		// core.groups does, or nil for an empty range, and fails unless
		// the cluster's answer is the scan's.
		cursor := 0
		query := func(place bool, w, lo, hi int, when string) *Server {
			t.Helper()
			if hi <= lo {
				return nil
			}
			cursor++
			from := lo + cursor%(hi-lo)
			got, want := c.MostBusyWith(w, lo, hi, from, nil, 0), scanMost(c, w, lo, hi, from, nil, 0)
			if place {
				got, want = c.LeastBusy(w, lo, hi, from, nil, 0), scanLeast(c, w, lo, hi, from, nil, 0)
			}
			if got != want {
				t.Fatalf("%s: workload %d place %v [%d,%d) from %d: index gives server %d, scan %d",
					when, w, place, lo, hi, from, id(got), id(want))
			}
			return got
		}
		// split is the hot group's size: servers [0,split) are hot, and
		// groups gives a class's primary and spill ranges.
		split := n / 3
		groups := func(class workload.Class) (prim, spill [2]int) {
			if class == workload.Hot {
				return [2]int{0, split}, [2]int{split, n}
			}
			return [2]int{split, n}, [2]int{0, split}
		}
		var failed []int
		for run := range 300 {
			wl := mix[rng.Intn(len(mix))]
			w, place := c.WorkloadIndex(wl), rng.Intn(2) == 0
			length := 1 + rng.Intn(60)
			if run == 150 {
				length = 40
			}
			for q := range length {
				when := fmt.Sprintf("n=%d run %d query %d", n, run, q)
				if q > 0 {
					prim, _ := groups(wl.Class)
					s := c.servers[prim[0]+rng.Intn(prim[1]-prim[0])]
					switch rng.Intn(5) {
					case 0:
						if s.RemoveAt(w) != nil {
							s.Remove(mix[rng.Intn(len(mix))])
						}
					case 1:
						if len(failed) > 0 {
							k := rng.Intn(len(failed))
							c.MarkRepaired(failed[k])
							failed = append(failed[:k], failed[k+1:]...)
						}
					case 2:
						if !s.Failed() {
							c.MarkFailed(s.id)
							failed = append(failed, s.id)
						}
					case 3:
						s.Place(mix[rng.Intn(len(mix))])
					default:
						split = min(max(split+rng.Intn(17)-8, 1), n-1)
					}
				}
				if run == 150 && q == 20 {
					c.servers[rng.Intn(n)].Place(late)
					mix = append(mix, late)
				}
				prim, spill := groups(wl.Class)
				if place {
					if s := query(true, w, prim[0], prim[1], when); s != nil {
						if err := s.PlaceAt(w); err != nil {
							t.Fatalf("%s: %v", when, err)
						}
					}
					continue
				}
				s := query(false, w, spill[0], spill[1], when)
				if p := query(false, w, prim[0], prim[1], when); s == nil {
					s = p
				}
				if s != nil {
					if err := s.RemoveAt(w); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
			}
			if err := x.Verify(); err != nil {
				t.Fatalf("n=%d run %d: %v", n, run, err)
			}
		}
		if len(mix) != 4 || len(x.trees) != 8 {
			t.Fatalf("n=%d: %d workloads in the mix and %d trees, want 4 and 8", n, len(mix), len(x.trees))
		}
	}
}
