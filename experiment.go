package vmt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"vmt/internal/experiment"
	"vmt/internal/pcm"
	"vmt/internal/report"
	"vmt/internal/stats"
	"vmt/internal/thermal"
	"vmt/internal/trace"
)

// This file binds the declarative experiment engine
// (internal/experiment) to the simulator: the decoding of spec
// settings onto Configs, the canonical Config hash behind the
// content-addressed run cache that RunMany plans every batch through,
// the spec executor on top of RunMany, and the named reducers. The
// root studies in experiments.go / ablation.go / adaptability.go /
// adaptive.go build their configurations, as specs or directly, and
// run them through RunMany.

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
// sampled series, the scalar outcome fields, and the grids when they
// were recorded. The cache re-checks it on every read, so a stored
// result mutated after Commit (an aliasing caller scribbling on a
// shared result) is quarantined and recomputed as a miss instead of
// silently poisoning later studies. The fold is hand-listed because
// headline_1000_fingerprints.json pins its values;
// TestResultFingerprintSensitivity fails on a Result field it misses.
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
	values := func(xs []float64) {
		mix(uint64(len(xs)))
		for _, x := range xs {
			mix(math.Float64bits(x))
		}
	}
	series := func(s *stats.Series) {
		if s == nil {
			mix(0)
			return
		}
		values(s.Values)
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
	// Grids fold in only when recorded, so a result without them keeps
	// the fingerprint it had before they were covered.
	if len(r.AirTempGrid) > 0 || len(r.MeltFracGrid) > 0 {
		for _, grid := range [][][]float64{r.AirTempGrid, r.MeltFracGrid} {
			mix(uint64(len(grid)))
			for _, row := range grid {
				values(row)
			}
		}
	}
	return h
}

// RunCache exposes the process-wide run cache, mainly so callers can
// disable it (benchmarking the dedup win), Reset it between
// measurements, or read its hit/miss Stats.
func RunCache() *experiment.Cache { return runCache }

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
// full grid run as one RunMany batch, deduplicated through the session
// run cache.
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
	runs, err := RunMany(cfgs, opts)
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

// RunSpecFile decodes the spec file at path and executes it with
// RunSpec — the -spec path of cmd/vmtsweep and cmd/vmtreport.
func RunSpecFile(path string, opts BatchOptions) (*SpecReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	spec, err := experiment.DecodeSpec(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return RunSpec(spec, opts)
}

// Table tabulates the reduced rows: one column per surviving axis
// label (spec axis order), then the derived labels (e.g. best_variant)
// and the value columns, each sorted by name. Values print with four
// decimals.
func (r *SpecReport) Table() report.Table {
	var headers []string
	if len(r.Rows) > 0 {
		for _, ax := range r.Spec.Axes {
			if _, ok := r.Rows[0].Labels[ax.Name]; ok {
				headers = append(headers, ax.Name)
			}
		}
		var extras []string
		for name := range r.Rows[0].Labels { //vmtlint:allow maporder extras are sorted immediately below
			if !slices.Contains(headers, name) {
				extras = append(extras, name)
			}
		}
		sort.Strings(extras)
		headers = append(headers, extras...)
		var values []string
		for name := range r.Rows[0].Values { //vmtlint:allow maporder values are sorted immediately below
			values = append(values, name)
		}
		sort.Strings(values)
		headers = append(headers, values...)
	}
	title := r.Spec.Name
	if r.Spec.Description != "" {
		title += ": " + r.Spec.Description
	}
	tb := report.Table{Title: title, Headers: headers}
	for _, row := range r.Rows {
		cells := make([]any, 0, len(headers))
		for _, h := range headers {
			if v, ok := row.Values[h]; ok {
				cells = append(cells, fmt.Sprintf("%.4f", v))
			} else {
				cells = append(cells, fmt.Sprintf("%v", row.Labels[h]))
			}
		}
		tb.AddRow(cells...)
	}
	return tb
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
