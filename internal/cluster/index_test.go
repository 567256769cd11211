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

// checkKeys fails t unless every word of c's key slab packs the fields
// it stands for: jobs (from the model, keyed by server and workload),
// busy cores, and the full bit while the server is failed or has no
// free core. It also checks that each server's row aliases the
// registry's slab.
func checkKeys(t *testing.T, c *Cluster, jobs map[[2]int]int, when string) {
	t.Helper()
	stride := len(c.reg.list)
	if len(c.reg.keys) != len(c.servers)*stride {
		t.Fatalf("%s: key slab has %d words for %d servers × %d workloads", when, len(c.reg.keys), len(c.servers), stride)
	}
	for id, s := range c.servers {
		if len(s.keys) != stride || stride > 0 && &s.keys[0] != &c.reg.keys[id*stride] {
			t.Fatalf("%s: server %d's key row is not its row of the slab", when, id)
		}
		for wi := 0; wi < stride; wi++ {
			want := uint32(jobs[[2]int{id, wi}])<<16 | uint32(s.BusyCores())
			if s.Failed() || s.BusyCores() == s.Cores() {
				want |= 1 << 31
			}
			if got := c.reg.keys[id*stride+wi]; got != want {
				t.Fatalf("%s: server %d workload %d key %#08x, want %#08x (jobs %d, busy %d, failed %v)",
					when, id, wi, got, want, jobs[[2]int{id, wi}], s.BusyCores(), s.Failed())
			}
		}
	}
}

// refPowerW is the draw PowerW computed from s's fields before the
// power column held it: idle power plus the dynamic power of its jobs,
// capped at the nameplate peak, and 0 while failed.
func refPowerW(s *Server) float64 {
	if s.failed {
		return 0
	}
	p := s.spec.IdlePowerW + s.DynamicPowerW()
	if p > s.spec.PeakPowerW {
		p = s.spec.PeakPowerW
	}
	return p
}

// checkPower fails t unless every entry of c's power column bit-equals
// refPowerW over its server's fields.
func checkPower(t *testing.T, c *Cluster, when string) {
	t.Helper()
	if len(c.reg.pow) != len(c.servers) {
		t.Fatalf("%s: power column has %d entries for %d servers", when, len(c.reg.pow), len(c.servers))
	}
	for id, s := range c.servers {
		if got, want := c.reg.pow[id], refPowerW(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: server %d power column %v, its fields give %v (failed %v, busy %d)",
				when, id, got, want, s.failed, s.busyCores)
		}
	}
}

// At small sizes — one leaf, padded trees, exact powers of two — every
// query over every range and rotation start, masked and unmasked,
// matches the independent scans after each random Place, Remove,
// crash or repair on tiny three-core servers, answered both by the
// placement index (unmasked) and by the key-slab scan; the trees match
// a rebuild; and after every mutator, interning's relayouts included,
// each key-slab word packs the server's state and each power-column
// entry equals the draw its server's fields give. The index is built
// before any workload is interned, so each workload's trees are added
// to a live index; an empty query first packs the slab's headers, as
// any cluster's first group query does.
func TestPlacementIndexSmallClusters(t *testing.T) {
	mix := []workload.Workload{workload.WebSearch, workload.VirusScan, workload.VideoEncoding}
	for _, n := range []int{1, 2, 3, 5, 8, 9} {
		cfg := PaperCluster(n)
		cfg.Server.CPUs, cfg.Server.CoresPerCPU = 1, 3
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.LeastBusy(0, 0, 0, 0, nil, 0)
		c.reg.place = newPlacementIndex(c)
		x := c.reg.place
		want := make(map[[2]int]int) // (server, workload) → jobs
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
				if s.Failed() {
					op = "MarkRepaired"
					c.MarkRepaired(id)
				} else {
					op = "MarkFailed"
					c.MarkFailed(id)
				}
			}
			when := fmt.Sprintf("n=%d step %d after %s on server %d", n, step, op, id)
			checkKeys(t, c, want, when)
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
								c.reg.place = idx
								if got, want := c.LeastBusy(wi, lo, hi, from, nil, 0), scanLeast(c, wi, lo, hi, from, nil, 0); got != want {
									t.Fatalf("%s, index %v: LeastBusy %v, scan %v", q, idx != nil, got, want)
								}
								if got, want := c.MostBusyWith(wi, lo, hi, from, nil, 0), scanMost(c, wi, lo, hi, from, nil, 0); got != want {
									t.Fatalf("%s, index %v: MostBusyWith %v, scan %v", q, idx != nil, got, want)
								}
							}
							c.reg.place = x
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

// Until its first group query a cluster leaves the slab's headers
// alone, round robin's case: through seeded Place, Remove, crash and
// repair, and the relayouts of interning, every word holds its jobs
// field, exact, and nothing else. The first query, a masked scan or an
// unmasked one that builds the index, packs every word to
// full<<31 | jobs<<16 | busy, and later moves keep them packed.
func TestPlacementIndexPacksOnFirstQuery(t *testing.T) {
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
					if s.Failed() {
						c.MarkRepaired(id)
					} else {
						c.MarkFailed(id)
					}
				}
				checkPower(t, c, fmt.Sprintf("n=%d %s step %d", q.n, when, step))
			}
		}
		churn(20*q.n, "unqueried")
		stride := len(c.reg.list)
		for id := range c.servers {
			for wi := 0; wi < stride; wi++ {
				if got, jobs := c.reg.keys[id*stride+wi], want[[2]int{id, wi}]; got != uint32(jobs)<<16 {
					t.Fatalf("n=%d unqueried: server %d workload %d key %#08x, want %d jobs and no header",
						q.n, id, wi, got, jobs)
				}
			}
		}
		if c.reg.packed || c.PlacementIndex() != nil {
			t.Fatalf("n=%d: packed %v, index %v before any query", q.n, c.reg.packed, c.PlacementIndex() != nil)
		}
		c.LeastBusy(0, 0, q.n, 0, q.mask, 1)
		checkKeys(t, c, want, fmt.Sprintf("n=%d first query", q.n))
		if (c.PlacementIndex() != nil) != (q.mask == nil) {
			t.Fatalf("n=%d: first query (mask %v) left index %v", q.n, q.mask != nil, c.PlacementIndex() != nil)
		}
		churn(2*q.n, "queried")
		checkKeys(t, c, want, fmt.Sprintf("n=%d after churn", q.n))
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
