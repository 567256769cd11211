package cluster

import (
	"fmt"
	"testing"

	"vmt/internal/stats"
	"vmt/internal/workload"
)

// scanLeast is the linear scan the index replaces, written
// independently of it: the first server in rotation from from with a
// free core and the least (jobs of w, busy cores).
func scanLeast(c *Cluster, w, lo, hi, from int) *Server {
	var best *Server
	for k := 0; k < hi-lo; k++ {
		s := c.servers[lo+(from-lo+k)%(hi-lo)]
		if s.FreeCores() == 0 {
			continue
		}
		if best == nil || s.JobsAt(w) < best.JobsAt(w) ||
			(s.JobsAt(w) == best.JobsAt(w) && s.BusyCores() < best.BusyCores()) {
			best = s
		}
	}
	return best
}

// scanMost is the eviction scan: the first server in rotation with the
// most jobs of w, failed or not.
func scanMost(c *Cluster, w, lo, hi, from int) *Server {
	var best *Server
	for k := 0; k < hi-lo; k++ {
		s := c.servers[lo+(from-lo+k)%(hi-lo)]
		if s.JobsAt(w) > 0 && (best == nil || s.JobsAt(w) > best.JobsAt(w)) {
			best = s
		}
	}
	return best
}

// At small sizes — one leaf, padded trees, exact powers of two — every
// query over every range and rotation start matches the scan after each
// random Place, Remove, crash or repair on tiny three-core servers, the
// trees match a rebuild, and the job-count slab keeps every count
// through the relayouts that interning causes. The index is built
// before any workload is interned, so each workload's trees are added
// to a live index.
func TestPlacementIndexSmallClusters(t *testing.T) {
	mix := []workload.Workload{workload.WebSearch, workload.VirusScan, workload.VideoEncoding}
	for _, n := range []int{1, 2, 3, 5, 8, 9} {
		cfg := PaperCluster(n)
		cfg.Server.CPUs, cfg.Server.CoresPerCPU = 1, 3
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.reg.place = newPlacementIndex(c.reg, c.servers)
		x := c.reg.place
		want := make(map[[2]int]int) // (server, workload) → jobs
		rng := stats.NewRNG(uint64(n))
		for step := 0; step < 200; step++ {
			id := rng.Intn(n)
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
			if err := x.Verify(); err != nil {
				t.Fatalf("n=%d step %d: %v", n, step, err)
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
							if got, want := x.LeastBusy(wi, lo, hi, from), scanLeast(c, wi, lo, hi, from); got != want {
								t.Fatalf("%s: LeastBusy %v, scan %v", q, got, want)
							}
							if got, want := x.MostBusyWith(wi, lo, hi, from), scanMost(c, wi, lo, hi, from); got != want {
								t.Fatalf("%s: MostBusyWith %v, scan %v", q, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// The index is built only where it pays and where its 16-bit key
// fields are exact: at or above the crossover, on servers of at most
// maxIndexedCores cores. Building is once per cluster.
func TestPlacementIndexBuiltOnlyWhereItWins(t *testing.T) {
	newC := func(n, coresPerCPU int) *Cluster {
		t.Helper()
		cfg := PaperCluster(n)
		cfg.Server.CPUs, cfg.Server.CoresPerCPU = 1, coresPerCPU
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if newC(indexCrossover-1, 32).PlacementIndex() != nil {
		t.Error("index built below the crossover")
	}
	c := newC(indexCrossover, maxIndexedCores)
	x := c.PlacementIndex()
	if x == nil || c.PlacementIndex() != x {
		t.Error("index not built once at the crossover")
	}
	if newC(indexCrossover, maxIndexedCores+1).PlacementIndex() != nil {
		t.Error("index built for servers whose busy cores overflow 16 bits")
	}
}
