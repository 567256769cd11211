// Command perfbench is the repository benchmark: it runs one named
// workload end to end through vmt.Session and prints its metrics as one
// JSON line, or (-trace 1) runs a traced replica of the same tick loop
// and prints the per-layer split. See README.md for the workloads, the
// metrics and what each is expected to move.
//
//	perfbench -workload paper-100 -seed 0 -seconds 10 -trace 0
//	perfbench -curve        # on-demand scaling curve, 1k–100k servers
//	perfbench -describe     # exact workload definitions as JSON
//	perfbench -pin 16       # fingerprints for seeds 0..15 as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vmt"
	"vmt/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measure for this many seconds (at least one operation)")
	traced := fs.Int("trace", 0, "1: run the traced replica and report per-layer metrics")
	outDir := fs.String("out-dir", "", "directory for the traced run's Chrome trace JSON")
	curve := fs.Bool("curve", false, "print the scaling curve (VMT-TA 1k/2k/4k, RR 10k/100k) and exit")
	describe := fs.Bool("describe", false, "print the workload definitions as JSON and exit")
	pin := fs.Int("pin", 0, "print fingerprints for seeds 0..N-1 of every workload as JSON and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	// One P: the loop is single-goroutine by design, and the physics
	// workers then run one after the other, so the timings measure work
	// rather than how much of a second core the host happened to lend.
	runtime.GOMAXPROCS(1)

	var err error
	switch {
	case *describe:
		err = printDescription()
	case *pin > 0:
		err = printPins(*pin)
	case *curve:
		err = printCurve()
	default:
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		if *traced != 0 && *traced != 1 || *seconds <= 0 {
			fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
			return 2
		}
		budget := time.Duration(*seconds * float64(time.Second))
		var rep report
		if *traced == 1 {
			rep, err = measureTraced(w, *seed, budget, *outDir)
		} else {
			rep, err = measure(w, *seed, budget)
		}
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// verifier checks every operation of a run: physical sanity, the same
// fingerprints on every operation, and the pinned fingerprints when the
// seed has them.
type verifier struct {
	w     *workload
	seed  uint64
	pins  pinned
	first []string
}

func (v *verifier) check(outs []outcome) error {
	fps := make([]string, len(outs))
	for i := range outs {
		if err := outs[i].sane(); err != nil {
			return fmt.Errorf("run %d (%s): %w", i, v.w.Runs[i].Policy, err)
		}
		fps[i] = outs[i].fingerprint()
	}
	if v.first == nil {
		v.first = fps
		if checked, err := v.pins.check(v.w.Name, v.seed, fps); err != nil {
			return fmt.Errorf("seed %d does not match fingerprints.json: %w", v.seed, err)
		} else if !checked {
			fmt.Fprintf(os.Stderr, "perfbench: no pinned fingerprint for seed %d; checking determinism and invariants only\n", v.seed)
		}
	} else {
		for i := range fps {
			if fps[i] != v.first[i] {
				return fmt.Errorf("run %d differs from the first operation's (fingerprint %s, first %s)", i, fps[i], v.first[i])
			}
		}
	}
	switch {
	case v.w.Name == "paper-100":
		rr := outs[0].peak()
		for i := 1; i < len(outs); i++ {
			if outs[i].peak() >= rr {
				return fmt.Errorf("%s peak %.1f W does not beat round robin's %.1f W", v.w.Runs[i].Policy, outs[i].peak(), rr)
			}
		}
	case v.w.Live:
		if outs[0].trips != 3 || outs[0].arrivals == 0 {
			return fmt.Errorf("live run saw %d domain trips (want 3) and %d task arrivals", outs[0].trips, outs[0].arrivals)
		}
	}
	return nil
}

// simulated returns the workload's simulated headline figures: the
// VMT-TA peak-cooling reduction against round robin (paper-100) and
// the task drop rate (live-faults-100). They are results, checked by
// the fingerprints, not timings.
func simulated(w *workload, outs []outcome) (reductionPct, dropPct float64) {
	if w.Name == "paper-100" && len(outs) > 1 {
		rr := outs[0].peak()
		reductionPct = (rr - outs[1].peak()) / rr * 100
	}
	if w.Live && outs[0].arrivals > 0 {
		dropPct = float64(outs[0].drops) / float64(outs[0].arrivals) * 100
	}
	return reductionPct, dropPct
}

// measureSetup times vmt.Open repeatedly (at least 11 times and 0.3 s,
// at most 201) so set-up time is a median of many samples, each scaled
// to the reference host by the probes run between them.
func measureSetup(w *workload, seed uint64) ([]float64, error) {
	var raw []float64
	speed := speedometer{}
	start := time.Now()
	for len(raw) < 201 && (len(raw) < 11 || time.Since(start) < 300*time.Millisecond) {
		speed.sample()
		d, err := setupOnce(w, seed)
		if err != nil {
			return nil, err
		}
		raw = append(raw, d.Seconds())
	}
	k := speed.scale()
	for i := range raw {
		raw[i] *= k
	}
	return raw, nil
}

// measure is the untraced end-to-end run: operations back to back
// until the budget is spent, each verified.
func measure(w *workload, seed uint64, budget time.Duration) (report, error) {
	pins, err := loadPinned()
	if err != nil {
		return report{}, err
	}
	setups, err := measureSetup(w, seed)
	if err != nil {
		return report{}, err
	}
	v := &verifier{w: w, seed: seed, pins: pins}
	mem := newMemStats()
	var runs, rawRuns, scales, allocs, heaps []float64
	var opTicks [][]float64
	var serverTicks float64
	var last []outcome
	rep := report{Metrics: map[string]metric{}}
	for start := time.Now(); rep.Attempted == 0 || time.Since(start) < budget; {
		rep.Attempted++
		op, err := runSessionOp(w, seed, mem)
		if err == nil {
			err = v.check(op.outcomes)
		}
		if err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d operation %d failed: %v\n", w.Name, seed, rep.Attempted, err)
			continue
		}
		k := op.scale
		for i := range op.ticks {
			op.ticks[i] *= k
		}
		opTicks = append(opTicks, op.ticks)
		setups = append(setups, op.setup.Seconds()*k)
		runs = append(runs, op.run.Seconds()*k)
		rawRuns = append(rawRuns, op.run.Seconds())
		scales = append(scales, k)
		allocs = append(allocs, float64(op.allocBytes)/1e6)
		heaps = append(heaps, float64(op.heapLive)/1e6)
		serverTicks = op.serverTicks
		last = op.outcomes
	}
	rep.Correct = rep.Failed == 0
	runS := median(runs)
	rep.set("setup_s", median(setups), "s")
	rep.set("run_s", runS, "s")
	rep.set("server_ticks_per_s", serverTicks/runS, "1/s")
	// Every operation repeats the same ticks, so each tick index's median
	// across operations drops the ticks a burst of host interference
	// happened to hit. Over eight paired runs this took the spread of
	// rr-10k's p99, whose tail is mostly such bursts, from 0.21 to 0.05
	// of its median (scale-2k's, set by its heaviest placement ticks,
	// went from 0.05 to 0.09); pooling every tick keeps the bursts.
	ticks := tickMedians(opTicks)
	rep.set("tick_p50_us", quantile(ticks, 0.50)/1e3, "us")
	rep.set("tick_p99_us", quantile(ticks, 0.99)/1e3, "us")
	rep.set("alloc_mb_per_run", median(allocs), "MB")
	rep.set("heap_live_mb", median(heaps), "MB")
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations (%d failed) of %d ticks, %d set-up samples; "+
		"run_s per operation as measured %.4g, host-speed scale %.3g\n",
		w.Name, seed, rep.Attempted, rep.Failed, len(ticks), len(setups), rawRuns, scales)
	if last != nil {
		red, drop := simulated(w, last)
		switch {
		case w.Name == "paper-100":
			fmt.Fprintf(os.Stderr, "perfbench: simulated: VMT-TA peak cooling reduction vs round robin %.2f%%\n", red)
		case w.Live:
			fmt.Fprintf(os.Stderr, "perfbench: simulated: task drops %.3f%% of %d arrivals, %d domain trips, %d quarantined\n",
				drop, last[0].arrivals, last[0].trips, last[0].quarantined)
		}
	}
	return rep, nil
}

// layerRun is one traced operation's per-layer figures.
type layerRun map[string]float64

// measureTraced alternates an untraced Session operation with the
// traced replica of it until the budget is spent. Every pair must
// agree bit for bit; the per-layer metrics are medians over the pairs.
func measureTraced(w *workload, seed uint64, budget time.Duration, outDir string) (report, error) {
	pins, err := loadPinned()
	if err != nil {
		return report{}, err
	}
	v := &verifier{w: w, seed: seed, pins: pins}
	mem := newMemStats()
	rep := report{Metrics: map[string]metric{}}
	var runs []layerRun
	var rec *telemetry.Recorder
	for start := time.Now(); rep.Attempted == 0 || time.Since(start) < budget; {
		rep.Attempted++
		sop, err := runSessionOp(w, seed, mem)
		if err == nil {
			err = v.check(sop.outcomes)
		}
		var lr layerRun
		if err == nil {
			rec = telemetry.NewRecorder()
			lr, err = traceOp(w, seed, sop, rec)
		}
		if err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced operation %d failed: %v\n", w.Name, seed, rep.Attempted, err)
			continue
		}
		runs = append(runs, lr)
	}
	rep.Correct = rep.Failed == 0
	for _, m := range perLayerMetrics {
		xs := make([]float64, len(runs))
		for i, lr := range runs {
			xs[i] = lr[m.name]
		}
		rep.set(m.name, median(xs), m.unit)
	}
	sanityNotes(w, rep.Metrics)
	if outDir != "" && rec != nil {
		if err := writeChromeTrace(rec, filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace.json", w.Name, seed))); err != nil {
			return report{}, err
		}
	}
	return rep, nil
}

// perLayerMetrics lists the traced run's metrics in report order.
var perLayerMetrics = []struct{ name, unit string }{
	{"cluster.step_s", "s"}, {"cluster.step_ns_per_server_tick", "ns"}, {"cluster.step_p99_us", "us"},
	{"cluster.settled_frac", "ratio"}, {"cluster.step_frac", "ratio"},
	{"sched.reconcile_s", "s"}, {"sched.reconcile_self_s", "s"}, {"sched.policy_tick_s", "s"},
	{"sched.place_calls", "count"}, {"sched.place_s", "s"}, {"sched.place_ns_per_call", "ns"}, {"sched.place_p99_ns", "ns"},
	{"sched.evict_calls", "count"}, {"sched.evict_s", "s"}, {"sched.evict_ns_per_call", "ns"}, {"sched.evict_p99_ns", "ns"},
	{"sched.ops_per_tick_max", "count"}, {"sched.place_evict_frac", "ratio"},
	{"fault.tick_s", "s"}, {"fault.evac_place_calls", "count"}, {"fault.evac_place_s", "s"},
	{"guard.tick_s", "s"}, {"guard.quarantined", "count"},
	{"session.observe_s", "s"}, {"session.sample_s", "s"},
	{"telemetry.series_observe_s", "s"}, {"telemetry.fleet_publish_s", "s"}, {"telemetry.seal_s", "s"},
	{"telemetry.sink_write_s", "s"}, {"telemetry.sink_bytes", "bytes"},
	{"setup.cluster_new_s", "s"}, {"setup.sched_new_s", "s"}, {"setup.fault_new_s", "s"}, {"setup.source_s", "s"},
	{"trace.overhead_frac", "ratio"}, {"trace.coverage_frac", "ratio"},
	{"sim.peak_reduction_pct", "%"}, {"sim.task_drop_pct", "%"},
}

// traceOp runs the traced replica of one operation and checks it
// against the Session operation sop.
func traceOp(w *workload, seed uint64, sop sessionOp, rec *telemetry.Recorder) (layerRun, error) {
	p := newProfiler(rec)
	var ts tickStats
	var setup setupTimes
	var loopWall time.Duration
	var sinkBytes int64
	outs := make([]outcome, len(w.Runs))
	runtime.GC()
	for i, r := range w.Runs {
		cfg := w.config(r, seed)
		var obs *observers
		if w.Live {
			obs = newObservers(p)
		}
		rep, err := newReplica(cfg, obs, p)
		if err != nil {
			return nil, fmt.Errorf("replica %s: %w", r.Policy, err)
		}
		setup.clusterNew += rep.setup.clusterNew
		setup.schedNew += rep.setup.schedNew
		setup.faultNew += rep.setup.faultNew
		setup.source += rep.setup.source
		p.run = i
		t0 := time.Now()
		out, err := rep.run(&ts)
		loopWall += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replica %s: %w", r.Policy, err)
		}
		if d := firstDivergence(&sop.outcomes[i], &out); d != "" {
			return nil, fmt.Errorf("replica of %s diverges from the Session run: %s", r.Policy, d)
		}
		sinkBytes += out.streamBytes + out.fleetBytes
		outs[i] = out
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	perCall := func(l int) float64 {
		if p.calls[l] == 0 {
			return 0
		}
		return float64(p.total[l]) / float64(p.calls[l])
	}
	tickWall := float64(p.total[lTick])
	red, drop := simulated(w, outs)
	var quarantined uint64
	for _, o := range outs {
		quarantined += o.quarantined
	}
	return layerRun{
		"cluster.step_s":                  sec(p.total[lClusterStep]),
		"cluster.step_ns_per_server_tick": float64(p.total[lClusterStep]) / float64(ts.serverTick),
		"cluster.step_p99_us":             quantile(ts.stepDur, 0.99) / 1e3,
		"cluster.settled_frac":            float64(ts.settled) / float64(ts.serverTick),
		"cluster.step_frac":               float64(p.total[lClusterStep]) / tickWall,
		"sched.reconcile_s":               sec(p.total[lReconcile]),
		"sched.reconcile_self_s":          sec(p.self[lReconcile]),
		"sched.policy_tick_s":             sec(p.total[lPolicyTick]),
		"sched.place_calls":               float64(p.calls[lPlace]),
		"sched.place_s":                   sec(p.total[lPlace]),
		"sched.place_ns_per_call":         perCall(lPlace),
		"sched.place_p99_ns":              float64(p.hist[lPlace].quantile(0.99)),
		"sched.evict_calls":               float64(p.calls[lEvict]),
		"sched.evict_s":                   sec(p.total[lEvict]),
		"sched.evict_ns_per_call":         perCall(lEvict),
		"sched.evict_p99_ns":              float64(p.hist[lEvict].quantile(0.99)),
		"sched.ops_per_tick_max":          float64(ts.opsMax),
		"sched.place_evict_frac":          float64(p.total[lPlace]+p.total[lEvict]+p.total[lEvacPlace]) / tickWall,
		"fault.tick_s":                    sec(p.total[lFaultTick]),
		"fault.evac_place_calls":          float64(p.calls[lEvacPlace]),
		"fault.evac_place_s":              sec(p.total[lEvacPlace]),
		"guard.tick_s":                    sec(p.total[lGuardTick]),
		"guard.quarantined":               float64(quarantined),
		"session.observe_s":               sec(sop.observe),
		"session.sample_s":                sec(p.self[lSample]),
		"telemetry.series_observe_s":      sec(p.total[lSeriesObserve]),
		"telemetry.fleet_publish_s":       sec(p.total[lFleetPublish]),
		"telemetry.seal_s":                sec(p.total[lSeal]),
		"telemetry.sink_write_s":          sec(p.total[lSinkWrite]),
		"telemetry.sink_bytes":            float64(sinkBytes),
		"setup.cluster_new_s":             sec(setup.clusterNew),
		"setup.sched_new_s":               sec(setup.schedNew),
		"setup.fault_new_s":               sec(setup.faultNew),
		"setup.source_s":                  sec(setup.source),
		"trace.overhead_frac":             float64(loopWall)/float64(sop.run-sop.observe) - 1,
		"trace.coverage_frac":             1 - float64(p.self[lTick])/tickWall,
		"trace.tick_s":                    sec(p.total[lTick]),
		"sim.peak_reduction_pct":          red,
		"sim.task_drop_pct":               drop,
	}, nil
}

// sanityNotes reports, without failing the run, when a workload no
// longer loads the layer it was chosen for.
func sanityNotes(w *workload, m map[string]metric) {
	step, sched := m["cluster.step_frac"].Value, m["sched.place_evict_frac"].Value
	fmt.Fprintf(os.Stderr, "perfbench: %s traced split: cluster.step %.1f%%, place+evict %.1f%% of the tick loop\n",
		w.Name, step*100, sched*100)
	note := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: note: "+format+"\n", args...)
	}
	switch w.Name {
	case "scale-2k":
		if sched < 0.70 {
			note("scale-2k: place+evict is %.1f%% of traced time, below the 70%% it was chosen for", sched*100)
		}
	case "rr-10k":
		if step < 0.70 {
			note("rr-10k: cluster.step is %.1f%% of traced time, below the 70%% it was chosen for", step*100)
		}
	case "paper-100":
		if step > 0.75 || sched > 0.75 {
			note("paper-100: one layer exceeds 75%% of traced time (cluster.step %.1f%%, place+evict %.1f%%)", step*100, sched*100)
		}
	}
}

func writeChromeTrace(rec *telemetry.Recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("chrome trace: %w", err)
	}
	return f.Close()
}

// printPins prints the fingerprints of one operation per workload for
// seeds 0..n-1, in the format of fingerprints.json.
func printPins(n int) error {
	out := pinned{}
	mem := newMemStats()
	for i := range workloads {
		w := &workloads[i]
		out[w.Name] = map[string][]string{}
		for seed := uint64(0); seed < uint64(n); seed++ {
			op, err := runSessionOp(w, seed, mem)
			if err != nil {
				return err
			}
			fps := make([]string, len(op.outcomes))
			for j := range op.outcomes {
				if err := op.outcomes[j].sane(); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				fps[j] = op.outcomes[j].fingerprint()
			}
			out[w.Name][fmt.Sprint(seed)] = fps
			fmt.Fprintf(os.Stderr, "perfbench: pinned %s seed %d\n", w.Name, seed)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// printDescription prints every workload with its exact Config at the
// default seed and the layer → end-to-end metric → workload mapping.
func printDescription() error {
	type configView struct {
		Servers        int         `json:"servers"`
		Policy         string      `json:"policy"`
		GV             float64     `json:"gv,omitempty"`
		InletStdevC    float64     `json:"inlet_stdev_c"`
		Seed           uint64      `json:"seed"`
		Trace          interface{} `json:"trace"`
		PhysicsWorkers int         `json:"physics_workers"`
		JobStream      bool        `json:"job_stream,omitempty"`
		Faults         interface{} `json:"faults,omitempty"`
		Observers      []string    `json:"observers,omitempty"`
	}
	type workloadView struct {
		workload
		Configs []configView `json:"configs_at_default_seed"`
	}
	var views []workloadView
	for i := range workloads {
		w := &workloads[i]
		wv := workloadView{workload: *w}
		for _, r := range w.Runs {
			cfg := w.config(r, defaultSeed)
			cv := configView{
				Servers: cfg.Servers, Policy: string(cfg.Policy), GV: cfg.GV, InletStdevC: cfg.InletStdevC,
				Seed: cfg.Seed, Trace: cfg.Trace, PhysicsWorkers: cfg.PhysicsWorkers, JobStream: cfg.JobStream,
			}
			if cfg.Faults != nil {
				cv.Faults = cfg.Faults
				cv.Observers = []string{
					"Metrics: telemetry.NewRegistry()",
					"Stream: NDJSON window sink → byte-counting discard writer",
					"Fleet: NDJSON fleet log → byte-counting discard writer",
				}
			}
			wv.Configs = append(wv.Configs, cv)
		}
		views = append(views, wv)
	}
	desc := map[string]interface{}{
		"loop": "Closed loop from one goroutine with GOMAXPROCS=1: vmt.Open, then Step(1) (and Observe on the live " +
			"workload) issued only after the previous call returns, then Close. Host times are wall time scaled to the " +
			"reference host's quiet state by a cache-bound probe run between ticks.",
		"seed": "The workload seed sets Config.Seed (inlet draw, job-stream arrivals), trace.PaperTwoDay().Seed+seed " +
			"(trace noise) and the fault-plan seed.",
		"defaults":  "Every Config field not shown is unset: paper server, commercial paraffin, 22 °C mean inlet, paper mix, 1-minute step, 2,880 ticks.",
		"workloads": views,
		"layer_map": layerMap,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(desc)
}

// printCurve runs VMT-TA at 1k/2k/4k and round robin at 10k/100k
// servers once each, untraced and then traced, and prints run_s with
// the traced layer split (shares of the replica's tick loop). It is
// outside the checked workloads: the 100k point alone takes minutes.
func printCurve() error {
	var points []workload
	for _, n := range []int{1000, 2000, 4000} {
		points = append(points, workload{Name: fmt.Sprintf("vmt-ta-%d", n), Servers: n, PhysicsWorkers: physicsWorkers,
			Runs: []policyRun{{Policy: vmt.PolicyVMTTA, GV: 22}}})
	}
	for _, n := range []int{10000, 100000} {
		points = append(points, workload{Name: fmt.Sprintf("rr-%d", n), Servers: n, PhysicsWorkers: physicsWorkers,
			Runs: []policyRun{{Policy: vmt.PolicyRoundRobin}}})
	}
	fmt.Printf("%-14s %8s %12s %7s %7s %7s %7s %7s\n", "point", "run_s", "srv-ticks/s", "step%", "place%", "evict%", "recon%", "other%")
	mem := newMemStats()
	for i := range points {
		w := &points[i]
		sop, err := runSessionOp(w, defaultSeed, mem)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		lr, err := traceOp(w, defaultSeed, sop, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		loop := lr["trace.tick_s"]
		step, place, evict := lr["cluster.step_s"]/loop, lr["sched.place_s"]/loop, lr["sched.evict_s"]/loop
		recon := lr["sched.reconcile_self_s"] / loop
		runS := sop.run.Seconds() * sop.scale
		fmt.Printf("%-14s %8.2f %12.0f %7.1f %7.1f %7.1f %7.1f %7.1f\n", w.Name, runS, sop.serverTicks/runS,
			100*step, 100*place, 100*evict, 100*recon, 100*(1-step-place-evict-recon))
	}
	return nil
}
