package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"vmt/internal/pcm"
	"vmt/internal/stats"
	"vmt/internal/thermal"
	"vmt/internal/workload"
)

// Config describes a homogeneous cluster (the paper schedules at the
// cluster level within homogeneous clusters; the scale-out study uses
// 1,000 servers, parameter sweeps 100).
type Config struct {
	// NumServers is the cluster size.
	NumServers int
	// Server is the per-server hardware/thermal specification.
	Server thermal.ServerSpec
	// Material is the deployed PCM.
	Material pcm.Material
	// InletTempC is the mean server inlet temperature.
	InletTempC float64
	// InletStdevC adds per-server normally distributed inlet
	// variation (Figures 19–20); zero for a uniform room.
	InletStdevC float64
	// Seed drives the inlet variation draw.
	Seed uint64
	// PhysicsWorkers bounds the goroutines advancing per-server
	// physics inside one Step. Servers couple only through the
	// scheduler, never through physics, and the post-step aggregation
	// is a sequential reduction in server-ID order — so results are
	// bit-identical for every worker count. Zero picks an automatic
	// value (parallel only for large clusters); negative is invalid.
	PhysicsWorkers int
}

// PaperCluster returns the scale-out configuration: n paper servers
// with commercial paraffin at a 22 °C inlet.
func PaperCluster(n int) Config {
	return Config{
		NumServers: n,
		Server:     thermal.PaperServer(),
		Material:   pcm.CommercialParaffin(),
		InletTempC: 22,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumServers <= 0 {
		return fmt.Errorf("cluster: need a positive server count, got %d", c.NumServers)
	}
	if c.InletStdevC < 0 {
		return fmt.Errorf("cluster: negative inlet stdev")
	}
	if c.PhysicsWorkers < 0 {
		return fmt.Errorf("cluster: negative physics worker count %d", c.PhysicsWorkers)
	}
	if err := c.Server.Validate(); err != nil {
		return err
	}
	return c.Material.Validate()
}

// Cluster is a collection of servers stepped in lockstep. Its state
// is a set of columns indexed by server ID: the thermal state in a
// struct-of-arrays thermal.Fleet, and the scheduling state (busy
// cores, failure, jobs, draw, reports) in the columns below. One Step
// is a cache-friendly sweep over contiguous ranges, a group query reads
// two of them, and a Server is a handle on its slot.
type Cluster struct {
	cfg Config
	// servers[i] points at server i's handle in one slab of handles.
	servers []*Server
	fleet   *thermal.Fleet
	// cores is cfg.Server.Cores(), read by every FreeCores.
	cores int
	reg   *registry

	// head is the header column: server id's busy cores and failed
	// state, packed as full<<31 | failed<<15 | busy (index.go), the one
	// place either is stored. Job moves, MarkFailed and MarkRepaired
	// write it.
	head []uint32
	// slab is the job slab: server id's job count of the workload with
	// registry index w is slab[id*stride+w] >> 16, stride being the
	// number of interned workloads, and the word holds nothing else.
	// Interning a workload re-lays it at the new stride (relayout).
	slab []uint32
	// dyn is the dynamic-power column: each server's running sum of the
	// per-core draw of its jobs, added and subtracted in move order.
	// Summing counts on demand would round differently, and map-based
	// summation would add floats in randomized iteration order, breaking
	// determinism.
	dyn []float64
	// pow is the power column: server id's draw is pow[id], the value
	// Server.PowerW returns. Job moves, MarkFailed and MarkRepaired
	// rewrite it (storePower), so Step hands it to the physics as is.
	pow []float64
	// quarantined marks the servers whose reports the defense layer has
	// flagged as implausible: schedulers should ignore their telemetry
	// and fall back to trust-free placement for them.
	quarantined []bool
	// filters interposes on each server's *reported* telemetry
	// (utilization, melt fraction) without touching the authoritative
	// bookkeeping — the seam Byzantine fault injection uses to make a
	// server lie to the scheduler while physics and placement stay
	// truthful. Nil until the first Server.SetReportFilter.
	filters []ReportFilter
	// ests is the wax-state estimator column, nil until
	// EnableEstimates; while it is nil, Step skips the estimator pass,
	// which walks it in step with the fleet's air-temperature slice.
	ests []pcm.Estimator
	// place is the placement index, nil until the cluster's first
	// unfiltered query builds one (buildIndex); interning a workload
	// gives it that workload's trees.
	place *PlacementIndex
	// reportEpoch is the report epoch (ReportEpoch).
	reportEpoch uint64
	// stepped is set by the first Step; estimates can be enabled only
	// before it.
	stepped bool
	// workers is the resolved physics worker count (≥1; 1 = serial).
	workers int
	// Per-server scratch reused across Steps so the steady-state
	// physics path allocates nothing. airBuf/meltBuf back the Sample
	// snapshots; chunkIdx/chunkErr carry each worker chunk's first
	// failure to the sequential reduction. The fleet kernel reads each
	// server's draw straight from the power column.
	airBuf   []float64
	meltBuf  []float64
	chunkIdx []int
	chunkErr []error
	// failedCount tracks crashed servers (fault injection) so the
	// schedulers' alive-prefix sizing can skip the scan when zero.
	failedCount int
}

// Automatic physics parallelism: below the threshold a goroutine
// handoff costs more than the physics; above it, workers are sized so
// each keeps a meaningful slab of servers.
const (
	autoParallelMinServers = 256
	autoServersPerWorker   = 64
	autoMaxPhysicsWorkers  = 8
)

func resolveWorkers(cfg Config) int {
	w := cfg.PhysicsWorkers
	if w == 0 {
		if cfg.NumServers < autoParallelMinServers {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
		if max := cfg.NumServers / autoServersPerWorker; w > max {
			w = max
		}
		if w > autoMaxPhysicsWorkers {
			w = autoMaxPhysicsWorkers
		}
	}
	if w > cfg.NumServers {
		w = cfg.NumServers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// New builds a cluster per the configuration. With InletStdevC > 0,
// each server's inlet is drawn once from N(InletTempC, InletStdevC²)
// using the configured seed.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	n := cfg.NumServers
	inlets := make([]float64, n)
	for i := range inlets {
		inlets[i] = cfg.InletTempC
		if cfg.InletStdevC > 0 {
			inlets[i] = rng.Normal(cfg.InletTempC, cfg.InletStdevC)
		}
	}
	fleet, err := thermal.NewFleet(cfg.Server, cfg.Material, inlets)
	if err != nil {
		return nil, err
	}
	workers := resolveWorkers(cfg)
	c := &Cluster{
		cfg:         cfg,
		servers:     make([]*Server, n),
		fleet:       fleet,
		cores:       cfg.Server.Cores(),
		reg:         newRegistry(),
		head:        make([]uint32, n),
		dyn:         make([]float64, n),
		pow:         make([]float64, n),
		quarantined: make([]bool, n),
		workers:     workers,
		airBuf:      make([]float64, n),
		meltBuf:     make([]float64, n),
		chunkIdx:    make([]int, 0, workers),
		chunkErr:    make([]error, 0, workers),
	}
	handles := make([]Server, n)
	for i := range handles {
		handles[i] = Server{c: c, id: i}
		c.servers[i] = &handles[i]
		c.storePower(i)
	}
	return c, nil
}

// EnableEstimates gives every server a wax-state estimator, the
// lookup-table model VMT-WA schedules by, and makes each later Step
// run the estimator pass. Each estimator starts from its server's wax
// temperature, which before the first Step is the drawn inlet. The
// consumers of estimates (VMT-WA, the report guard, fault injection)
// call it at construction. It is idempotent, and fails on a cluster
// that has stepped without estimates: its estimators would start from
// a state the wax has already left.
func (c *Cluster) EnableEstimates() error {
	if c.ests != nil {
		return nil
	}
	if c.stepped {
		return fmt.Errorf("cluster: estimates must be enabled before the first Step")
	}
	spec := c.cfg.Server
	ests := make([]pcm.Estimator, len(c.servers))
	if err := pcm.InitEstimator(&ests[0], c.cfg.Material, spec.WaxVolumeL, c.fleet.WaxTempC(0), spec.WaxConductanceWPerK); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	// The servers share one spec and material, so every other
	// estimator is a copy of the first re-anchored at its own wax
	// temperature: the state InitEstimator builds, without its
	// per-server table and curve cache lookups.
	for i := 1; i < len(ests); i++ {
		ests[i] = ests[0]
		ests[i].Reset(c.fleet.WaxTempC(i))
	}
	c.ests = ests
	return nil
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Len returns the number of servers.
//
//vmt:hotpath
func (c *Cluster) Len() int { return len(c.servers) }

// Server returns server i.
func (c *Cluster) Server(i int) *Server { return c.servers[i] }

// Servers returns the server slice (shared; do not reorder).
//
//vmt:hotpath
func (c *Cluster) Servers() []*Server { return c.servers }

// MarkFailed crashes server i: it stops drawing power and offering
// capacity until MarkRepaired, while its physics keeps stepping so the
// wax refreezes realistically. Idempotent.
func (c *Cluster) MarkFailed(i int) {
	if c.head[i]&failedBit == 0 {
		c.head[i] |= failedBit | fullBit
		c.failedCount++
		c.storePower(i)
		if x := c.place; x != nil {
			x.capacityChanged(i)
		}
	}
}

// MarkRepaired brings server i back. Idempotent.
func (c *Cluster) MarkRepaired(i int) {
	if c.head[i]&failedBit != 0 {
		c.head[i] = c.header(int(c.head[i]&busyMask), false)
		c.failedCount--
		c.storePower(i)
		if x := c.place; x != nil {
			x.capacityChanged(i)
			x.placeGen++
		}
	}
}

// header is the header word of a server with busy busy cores, failed
// or not: full<<31 | failed<<15 | busy, the full bit set while the
// server is failed or has no free core.
func (c *Cluster) header(busy int, failed bool) uint32 {
	h := uint32(busy)
	if failed {
		h |= failedBit | fullBit
	} else if busy >= c.cores {
		h |= fullBit
	}
	return h
}

// storePower writes server id's draw into the power column after its
// jobs or failed state changed: idle power plus the dynamic power of
// its jobs, capped at the nameplate peak, and 0 while failed.
func (c *Cluster) storePower(id int) {
	p := 0.0
	if c.head[id]&failedBit == 0 {
		p = c.cfg.Server.IdlePowerW + c.dyn[id]
		if p > c.cfg.Server.PeakPowerW {
			p = c.cfg.Server.PeakPowerW
		}
	}
	c.pow[id] = p
}

// PlacementIndex returns the cluster's placement index, or nil until
// the first unfiltered LeastBusy or MostBusyWith on a cluster of at
// least indexCrossover servers builds it. Smaller clusters never get
// one: below the crossover a slab scan is cheaper than keeping the
// index current on every Place and Remove.
func (c *Cluster) PlacementIndex() *PlacementIndex { return c.place }

// FailedServers returns how many servers are currently crashed.
func (c *Cluster) FailedServers() int { return c.failedCount }

// ReportEpoch returns a counter that moves whenever a server's air
// temperature or reported melt fraction may have changed: on every
// Step, on Server.SetReportFilter, and on ReportsChanged. A scheduler
// that caches predicates over them (VMT-WA's wax-state mask) rebuilds
// the cache once the epoch moves past the one it was built at. Job
// moves, MarkFailed, MarkRepaired and inlet changes do not move it:
// none of them changes an air temperature or a melt report before the
// next Step.
func (c *Cluster) ReportEpoch() uint64 { return c.reportEpoch }

// ReportsChanged moves the report epoch. Code that changes a server's
// reported melt fraction between Steps other than by SetReportFilter
// calls it after the change and before the scheduler next runs: fault
// injection after resetting a repaired server's estimator, and after
// refreshing the state its report filters read.
func (c *Cluster) ReportsChanged() { c.reportEpoch++ }

// TotalCores returns the cluster-wide core count.
func (c *Cluster) TotalCores() int {
	return len(c.servers) * c.cfg.Server.Cores()
}

// BusyCores returns the cluster-wide occupied core count.
func (c *Cluster) BusyCores() int {
	var n int
	for _, h := range c.head {
		n += int(h & busyMask)
	}
	return n
}

// CorePowerW returns the draw one core running w adds to a server of
// c: w's per-core watts (Table I) times the server spec's PowerScale,
// the value Server.Place adds to the server's dynamic power. It does
// not intern w.
func (c *Cluster) CorePowerW(w workload.Workload) float64 {
	return w.PerCorePowerW() * c.cfg.Server.PowerScale
}

// WorkloadIndex returns the registry index for w (assigning one if w
// is new to the cluster). Schedulers resolve the index once per scan
// and use Server.JobsAt for hash-free count reads.
//
//vmt:hotpath
func (c *Cluster) WorkloadIndex(w workload.Workload) int {
	return c.intern(w) //vmtlint:allow hotpath interning miss is once per workload name; steady-state scans hit the memo
}

// intern returns w's registry index, interning w on first use: the
// registry assigns the index, the job slab gains w's column with no
// jobs on any server, and the placement index gains w's trees.
func (c *Cluster) intern(w workload.Workload) int {
	i, ok := c.reg.lookup(w)
	if !ok {
		i = c.reg.add(w, c.CorePowerW(w))
		c.relayout()
		if c.place != nil {
			c.place.addWorkload()
		}
	}
	return i
}

// relayout widens the job slab to one column per interned workload,
// keeping every server's job counts.
func (c *Cluster) relayout() {
	stride := len(c.reg.list)
	slab := make([]uint32, len(c.servers)*stride)
	for id := range c.servers {
		copy(slab[id*stride:], c.slab[id*(stride-1):(id+1)*(stride-1)])
	}
	c.slab = slab
}

// JobCount returns the cluster-wide job count for workload w.
func (c *Cluster) JobCount(w workload.Workload) int {
	i, ok := c.reg.lookup(w)
	if !ok {
		return 0
	}
	var n int
	for _, s := range c.servers {
		n += s.JobsAt(i)
	}
	return n
}

// Sample is one cluster-wide observation after a Step.
type Sample struct {
	// TotalPowerW is the aggregate electrical draw.
	TotalPowerW float64
	// CoolingLoadW is the aggregate heat ejected to the room — what
	// the cooling system must remove right now.
	CoolingLoadW float64
	// WaxFlowW is the aggregate heat flow into wax (negative while
	// stored heat is being released).
	WaxFlowW float64
	// MeanAirTempC and MeanMeltFrac summarize the fleet.
	MeanAirTempC float64
	MeanMeltFrac float64
	// MaxCPUTempC is the fleet's hottest estimated die temperature,
	// and ThrottlingServers counts servers over the CPU limit — the
	// constraint VMT's concentrated placement must not break.
	MaxCPUTempC       float64
	ThrottlingServers int
	// WaxEnergyJ is the cumulative energy parked in wax since the run
	// started (the sum of every server's wax ledger, in ID order).
	WaxEnergyJ float64
	// SettledServers counts servers whose physics step replayed a
	// memoized steady-state transition — the fleet's settled fraction,
	// an observability signal for how much of the cluster is coasting.
	SettledServers int
	// AirTempC and MeltFrac are per-server snapshots (ground truth),
	// indexed by server ID — the raw material of the paper's heat
	// maps. The backing arrays are owned by the cluster and reused by
	// the next Step; callers that retain a snapshot across steps must
	// copy them.
	AirTempC []float64
	MeltFrac []float64
}

// Step advances every server by dt and returns the aggregate sample.
//
// Each server's draw, fixed for the whole step, is its entry in the
// power column, which job moves, crashes and repairs keep current; the
// fleet kernel and the aggregation read that column directly, so a
// Step streams dense columns and loads no *Server.
// The per-server physics is embarrassingly parallel (servers couple
// only through the scheduler between steps), so it fans out across
// PhysicsWorkers goroutines writing disjoint per-server slots; the
// aggregation below is a single sequential reduction in server-ID
// order, which keeps every float sum in a fixed order and the result
// bit-identical for any worker count.
func (c *Cluster) Step(dt time.Duration) (Sample, error) {
	c.stepped = true
	c.reportEpoch++
	if err := c.stepPhysics(dt); err != nil {
		return Sample{}, err
	}
	v := c.fleet.View()
	sample := Sample{AirTempC: c.airBuf, MeltFrac: c.meltBuf}
	// Hoisted spec scalars: the loop computes ServerSpec.CPUTempC inline
	// (calling it would copy the full spec struct per server per tick),
	// and TestStepCPUTempMatchesSpec holds the two to the same bits.
	idleW := c.cfg.Server.IdlePowerW
	cpus := float64(c.cfg.Server.CPUs)
	rCPU := c.cfg.Server.CPUThermalResistanceKPerW
	limitC := c.cfg.Server.CPULimitC
	pow := c.pow
	var sumAir, sumMelt float64
	for i := range c.servers {
		air := v.AirTempC[i]
		melt := v.MeltFrac[i]
		pw := pow[i]
		sample.TotalPowerW += pw
		sample.CoolingLoadW += v.CoolingLoadW[i]
		sample.WaxFlowW += v.WaxFlowW[i]
		c.airBuf[i] = air
		c.meltBuf[i] = melt
		sumAir += air
		sumMelt += melt
		dynamic := pw - idleW
		if dynamic < 0 {
			dynamic = 0
		}
		cpu := air + dynamic/cpus*rCPU
		if cpu > sample.MaxCPUTempC {
			sample.MaxCPUTempC = cpu
		}
		if limitC > 0 && cpu > limitC {
			sample.ThrottlingServers++
		}
		sample.WaxEnergyJ += v.WaxStoredJ[i]
		if v.Settled[i] {
			sample.SettledServers++
		}
	}
	// Same ID-order addition sequence as stats.Mean over the snapshot
	// arrays, folded into the reduction pass above.
	if n := float64(len(c.servers)); n > 0 {
		sample.MeanAirTempC = sumAir / n
		sample.MeanMeltFrac = sumMelt / n
	}
	return sample, nil
}

// physBlock is the cache-blocking granularity of the physics pass:
// stepBlocks walks its range in blocks of this many servers, running
// the fleet kernel and then, with estimates enabled, the estimator
// pass over the same block while its air-temperature column is still
// cache-resident.
const physBlock = 2048

// stepPhysics advances the fleet store by dt and, with estimates
// enabled, feeds each server's estimator the post-step air
// temperature. Every worker count runs the same blocked loop
// (stepBlocks) over contiguous ID ranges: one range stepped inline at
// one worker, or one range per goroutine above.
// Per-server outcomes land in the fleet's slices either way, and the
// per-server arithmetic is range-independent, so results are
// bit-identical at any worker count. On error, the lowest-ID failure
// is reported; servers before it in its range have committed their
// step, it and the rest of its range have not, and other ranges run to
// their own first failure.
func (c *Cluster) stepPhysics(dt time.Duration) error {
	n := len(c.servers)
	if c.workers <= 1 {
		if idx, err := c.stepBlocks(0, n, dt); err != nil {
			return fmt.Errorf("cluster: server %d: %w", idx, err)
		}
		return nil
	}
	chunk := (n + c.workers - 1) / c.workers
	c.chunkIdx = c.chunkIdx[:0]
	c.chunkErr = c.chunkErr[:0]
	for lo := 0; lo < n; lo += chunk {
		c.chunkIdx = append(c.chunkIdx, n)
		c.chunkErr = append(c.chunkErr, nil)
	}
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			c.chunkIdx[w], c.chunkErr[w] = c.stepBlocks(lo, hi, dt)
		}(w, lo, hi)
	}
	wg.Wait()
	// Report the lowest-ID failure, matching the ID-order error
	// precedence of the old per-server reduction.
	first, firstIdx := error(nil), n
	for w, err := range c.chunkErr {
		if err != nil && c.chunkIdx[w] < firstIdx {
			first, firstIdx = err, c.chunkIdx[w]
		}
	}
	if first != nil {
		return fmt.Errorf("cluster: server %d: %w", firstIdx, first)
	}
	return nil
}

// stepBlocks runs the fleet kernel over servers [lo,hi), one
// physBlock at a time, each block followed by the estimator pass when
// estimates are enabled (a nil column skips it). It stops at the first
// failure and returns its server index.
//
//vmt:hotpath
func (c *Cluster) stepBlocks(lo, hi int, dt time.Duration) (int, error) {
	for b := lo; b < hi; b += physBlock {
		e := min(b+physBlock, hi)
		if idx, err := c.fleet.StepRange(b, e, c.pow, dt); err != nil {
			return idx, err
		}
		if c.ests != nil {
			c.updateEstimators(b, e, dt)
		}
	}
	return -1, nil
}

// updateEstimators feeds servers [lo,hi) their post-step air
// temperatures. Estimators are per-server independent, so running all
// of a chunk's updates after its physics (rather than interleaved
// per-server) changes no values.
//
//vmt:hotpath
func (c *Cluster) updateEstimators(lo, hi int, dt time.Duration) {
	v := c.fleet.View()
	for i := lo; i < hi; i++ {
		c.ests[i].Update(v.AirTempC[i], dt)
	}
}
