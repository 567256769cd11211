package vmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"vmt/internal/experiment"
	"vmt/internal/pcm"
	"vmt/internal/stats"
	"vmt/internal/thermal"
	"vmt/internal/trace"
)

// This file binds the declarative experiment engine
// (internal/experiment) to the simulator: the decoding of spec
// settings onto Configs, the canonical Config hash behind the
// content-addressed run cache, the spec executor on top of
// RunManyOpts, and the named reducers. The root studies in
// experiments.go / ablation.go / adaptability.go / adaptive.go are
// thin spec-builder + reducer adapters over this core.

// ---------------------------------------------------------------------
// Canonical Config hashing.

// configKey returns cfg's content address: the hash of its resolved
// JSON form, which holds every field not tagged `json:"-"`. Two
// configurations share a key exactly when Run would produce
// bit-identical Results for both.
func configKey(cfg Config) (string, error) {
	r := cfg.withDefaults()
	if r.CustomTrace != nil || r.Source != nil {
		// A custom trace or an arrival source replaces the trace spec
		// entirely, so the unused spec must not split the key.
		r.Trace = trace.Spec{}
	}
	return experiment.Key(r)
}

// ---------------------------------------------------------------------
// The session run cache.

// runCache deduplicates simulation runs across every study of the
// process: identical configurations (notably the shared round-robin
// baselines) simulate exactly once per session. Results handed out of
// the cache are shared — treat them as read-only, which every study
// already does; resultFingerprint is the backstop when one does not.
var runCache = func() *experiment.Cache {
	c := experiment.NewCache()
	c.SetVerifier(resultFingerprint)
	return c
}()

// resultFingerprint folds a cached *Result into a 64-bit integrity
// fingerprint: an FNV-1a-style fold over the exact float bits of every
// sampled series plus the scalar outcome fields. The cache re-checks
// it on every read, so a stored result mutated after Commit (an
// aliasing caller scribbling on a shared result) is quarantined and
// recomputed as a miss instead of silently poisoning later studies.
func resultFingerprint(v any) uint64 {
	r, ok := v.(*Result)
	if !ok || r == nil {
		return 0
	}
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	mix := func(u uint64) {
		h ^= u
		h *= prime
	}
	series := func(s *stats.Series) {
		if s == nil {
			mix(0)
			return
		}
		mix(uint64(len(s.Values)))
		for _, x := range s.Values {
			mix(math.Float64bits(x))
		}
	}
	series(r.CoolingLoadW)
	series(r.TotalPowerW)
	series(r.MeanAirTempC)
	series(r.HotGroupTempC)
	series(r.HotGroupSize)
	series(r.MeanMeltFrac)
	series(r.WaxEnergyJ)
	series(r.MaxCPUTempC)
	mix(uint64(r.ThrottleMinutes))
	mix(r.TaskArrivals)
	mix(r.TaskDrops)
	mix(r.FaultCrashes)
	mix(r.FaultRepairs)
	mix(r.EvacuatedJobs)
	mix(r.LostJobs)
	mix(r.DomainTrips)
	mix(r.ReportsQuarantined)
	return h
}

// RunCache exposes the process-wide run cache, mainly so callers can
// disable it (benchmarking the dedup win), Reset it between
// measurements, or read its hit/miss Stats.
func RunCache() *experiment.Cache { return runCache }

// RunManyCached is RunManyOpts through the session run cache: cached
// and intra-batch-duplicate configurations are answered without
// simulating, and fresh results are stored for the rest of the
// process. Cache traffic lands on the "experiment_cache_hits" /
// "experiment_cache_misses" counters of opts.Metrics (or the process
// default registry). Like RunManyOpts, a failure is reported as a
// *RunError carrying the index into cfgs, with results at all other
// indices still populated.
func RunManyCached(cfgs []Config, opts BatchOptions) ([]*Result, error) {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		k, err := configKey(cfg)
		if err != nil {
			return nil, &RunError{Index: i, Err: err}
		}
		keys[i] = k
	}
	plan := runCache.Plan(keys)

	metrics := opts.Metrics
	if metrics == nil {
		obsMu.RLock()
		metrics = defaultMetrics
		obsMu.RUnlock()
	}
	metrics.Counter("experiment_cache_hits").Add(uint64(len(cfgs) - plan.Misses()))
	metrics.Counter("experiment_cache_misses").Add(uint64(plan.Misses()))
	if n := plan.Corrupt(); n > 0 {
		metrics.Counter("experiment_cache_corruptions").Add(uint64(n))
	}

	toRun := make([]Config, len(plan.Run))
	for j, i := range plan.Run {
		toRun[j] = cfgs[i]
	}
	runs, runErr := RunManyOpts(toRun, opts)
	fresh := make([]any, len(toRun))
	for j, r := range runs {
		if r != nil {
			fresh[j] = r
		}
	}
	merged := runCache.Commit(plan, fresh)
	out := make([]*Result, len(cfgs))
	for i, v := range merged {
		if v != nil {
			out[i] = v.(*Result)
		}
	}
	if runErr != nil {
		var re *RunError
		if errors.As(runErr, &re) {
			return out, &RunError{Index: plan.Run[re.Index], Err: re.Err}
		}
		return out, runErr
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Settings → Config.

// pointSettings is what a spec point's settings decode onto: Config's
// own JSON fields plus the derived keys, which set a Config field from
// a value in another form. configFromSettings applies the derived keys
// after the Config fields, in the order declared here, so the
// modifiers compose on top of the objects they modify.
type pointSettings struct {
	Config
	// Material picks the PCM by name: paper (the default commercial
	// paraffin) or inert.
	Material *string `json:"material"`
	// PMTC sets the material's melting temperature.
	PMTC *float64 `json:"pmt_c"`
	// VolumeL and PowerScale set the server spec's wax volume and
	// power scale.
	VolumeL    *float64 `json:"volume_l"`
	PowerScale *float64 `json:"power_scale"`
	// HorizonMin sets Horizon in minutes.
	HorizonMin *float64 `json:"horizon_min"`
}

// configFromSettings builds a validated Config from a spec's merged
// settings. Unknown keys are an error so spec-file typos fail loudly.
func configFromSettings(s experiment.Settings) (Config, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return Config{}, fmt.Errorf("vmt: settings: %w", err)
	}
	var p pointSettings
	if err := decodeStrict(b, &p); err != nil {
		return Config{}, fmt.Errorf("vmt: settings: %w", err)
	}
	cfg := p.Config
	if p.Material != nil {
		switch *p.Material {
		case "paper", "":
			cfg.Material = Optional[pcm.Material]{} // default commercial paraffin
		case "inert":
			cfg.Material = Some(pcm.Inert())
		default:
			return Config{}, fmt.Errorf("vmt: unknown material %q (want paper or inert)", *p.Material)
		}
	}
	if p.PMTC != nil {
		cfg.Material = Some(cfg.Material.Or(pcm.CommercialParaffin()).WithMeltTemp(*p.PMTC))
	}
	if p.VolumeL != nil || p.PowerScale != nil {
		spec := cfg.Server.Or(thermal.PaperServer())
		if p.VolumeL != nil {
			spec.WaxVolumeL = *p.VolumeL
		}
		if p.PowerScale != nil {
			spec.PowerScale = *p.PowerScale
		}
		cfg.Server = Some(spec)
	}
	if p.HorizonMin != nil {
		if *p.HorizonMin <= 0 {
			return Config{}, fmt.Errorf("vmt: setting horizon_min: want positive minutes, got %v", *p.HorizonMin)
		}
		horizon, err := stats.Duration("vmt: setting horizon_min", *p.HorizonMin, time.Minute)
		if err != nil {
			return Config{}, err
		}
		cfg.Horizon = horizon
	}
	return cfg, cfg.Validate()
}

// decodeStrict decodes the JSON value b into v, rejecting unknown
// object keys.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// ---------------------------------------------------------------------
// Spec execution.

// SpecRun holds one executed spec: the expanded grid and the simulation
// results, with every point's matched baseline resolvable. Results may
// be shared with the session cache — treat them as read-only.
type SpecRun struct {
	Spec experiment.Spec
	// Points and Results align: Results[i] is the run of Points[i].
	Points  []experiment.Point
	Results []*Result
	// Baselines aligns with Spec.BaselinePoints().
	Baselines   []*Result
	baselineIdx []int
}

// BaselineFor returns the baseline result matched to point i.
func (sr *SpecRun) BaselineFor(i int) *Result {
	return sr.Baselines[sr.baselineIdx[i]]
}

// RunSpecResults validates and executes a spec: the baselines and the
// full grid run as one deduplicated batch through the session run
// cache on top of RunManyOpts.
func RunSpecResults(spec experiment.Spec, opts BatchOptions) (*SpecRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	points := spec.Points()
	baselines := spec.BaselinePoints()
	baselineIdx, err := spec.BaselineIndex(points, baselines)
	if err != nil {
		return nil, err
	}
	cfgs := make([]Config, 0, len(baselines)+len(points))
	for _, b := range baselines {
		cfg, err := configFromSettings(b.Settings)
		if err != nil {
			return nil, fmt.Errorf("vmt: spec %s baseline: %w", spec.Name, err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, p := range points {
		cfg, err := configFromSettings(p.Settings)
		if err != nil {
			return nil, fmt.Errorf("vmt: spec %s point %d: %w", spec.Name, p.Index, err)
		}
		cfgs = append(cfgs, cfg)
	}
	runs, err := RunManyCached(cfgs, opts)
	if err != nil {
		return nil, err
	}
	return &SpecRun{
		Spec:        spec,
		Points:      points,
		Results:     runs[len(baselines):],
		Baselines:   runs[:len(baselines)],
		baselineIdx: baselineIdx,
	}, nil
}

// SpecReport is a reduced spec execution: one generic row per surviving
// label tuple, ready for tabulation or JSON emission.
type SpecReport struct {
	Spec experiment.Spec  `json:"spec"`
	Rows []experiment.Row `json:"rows"`
}

// RunSpec executes a spec and applies its named reducer — the
// everything-is-data path cmd/vmtsweep -spec uses. Studies with typed
// outputs use RunSpecResults and reduce themselves.
func RunSpec(spec experiment.Spec, opts BatchOptions) (*SpecReport, error) {
	sr, err := RunSpecResults(spec, opts)
	if err != nil {
		return nil, err
	}
	rows, err := sr.reduce()
	if err != nil {
		return nil, err
	}
	return &SpecReport{Spec: spec, Rows: rows}, nil
}

// pointReduction computes point i's peak cooling reduction against its
// matched baseline.
func (sr *SpecRun) pointReduction(i int) (float64, error) {
	return peakReductionPct(sr.BaselineFor(i), sr.Results[i])
}

func peakReductionPct(baseline, variant *Result) (float64, error) {
	base := baseline.PeakCoolingW()
	if base <= 0 {
		return 0, fmt.Errorf("vmt: non-positive baseline peak")
	}
	return (base - variant.PeakCoolingW()) / base * 100, nil
}

// reduce applies the spec's named reducer over the results.
func (sr *SpecRun) reduce() ([]experiment.Row, error) {
	switch sr.Spec.Reducer {
	case experiment.ReducePeakReduction:
		rows := make([]experiment.Row, len(sr.Points))
		for i, p := range sr.Points {
			red, err := sr.pointReduction(i)
			if err != nil {
				return nil, err
			}
			rows[i] = experiment.Row{
				Labels: p.Labels,
				Values: map[string]float64{"reduction_pct": red},
			}
		}
		return rows, nil
	case experiment.ReducePeakReductionMean:
		return sr.reduceGrouped(sr.Spec.MeanOver, func(row *experiment.Row, group []int) error {
			var sum float64
			for _, i := range group {
				red, err := sr.pointReduction(i)
				if err != nil {
					return err
				}
				sum += red
			}
			row.Values["reduction_pct"] = sum / float64(len(group))
			return nil
		})
	case experiment.ReducePeakReductionBest:
		axis := sr.Spec.BestOver
		return sr.reduceGrouped([]string{axis}, func(row *experiment.Row, group []int) error {
			best := math.Inf(-1)
			var bestLabel any
			for _, i := range group {
				red, err := sr.pointReduction(i)
				if err != nil {
					return err
				}
				if red > best {
					best = red
					bestLabel = sr.Points[i].Labels[axis]
				}
			}
			row.Values["reduction_pct"] = best
			if f, ok := bestLabel.(float64); ok {
				row.Values["best_"+axis] = f
			} else {
				row.Labels["best_"+axis] = bestLabel
			}
			return nil
		})
	}
	return nil, fmt.Errorf("vmt: unknown reducer %q", sr.Spec.Reducer)
}

// reduceGrouped buckets points by their labels minus the dropped axes
// (first-seen grid order, so reductions accumulate in the same order
// the sequential studies used) and emits one row per bucket.
func (sr *SpecRun) reduceGrouped(drop []string, fill func(*experiment.Row, []int) error) ([]experiment.Row, error) {
	dropped := map[string]bool{}
	for _, d := range drop {
		dropped[d] = true
	}
	var keep []string
	for _, ax := range sr.Spec.Axes {
		if !dropped[ax.Name] {
			keep = append(keep, ax.Name)
		}
	}
	groups := map[string][]int{}
	var order []string
	for i, p := range sr.Points {
		key := ""
		for _, k := range keep {
			key += fmt.Sprintf("%v\x00", p.Labels[k])
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	rows := make([]experiment.Row, 0, len(order))
	for _, key := range order {
		group := groups[key]
		row := experiment.Row{
			Labels: map[string]any{},
			Values: map[string]float64{},
		}
		for _, k := range keep {
			row.Labels[k] = sr.Points[group[0]].Labels[k]
		}
		if err := fill(&row, group); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
