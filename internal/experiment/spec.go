// Package experiment is the declarative experiment engine beneath the
// vmt study facade: a JSON-serializable study specification (a base
// configuration, swept axes, baseline semantics, and a named reducer),
// deterministic grid expansion, and a content-addressed run cache with
// dedup planning.
//
// The package is simulator-agnostic. A Spec describes *which*
// configurations to run as generic settings maps; the root vmt package
// maps settings onto concrete Configs, executes the deduplicated plan
// through its batch runner, and implements the named reducers. That
// split keeps this core testable (and raceable) without running any
// physics, and keeps the spec format decoupled from Go types so
// studies can be loaded from files.
package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"vmt/internal/jsonio"
)

// Reducer names understood by the engine. The implementations live in
// the root package (they read simulation results); the names live here
// so spec validation and documentation have one source of truth.
const (
	// ReducePeakReduction emits one row per grid point: the point's
	// axis labels plus "reduction_pct", its peak cooling-load reduction
	// against the matched baseline.
	ReducePeakReduction = "peak_reduction"
	// ReducePeakReductionMean averages reduction_pct over the MeanOver
	// axes (e.g. seeds), emitting one row per remaining label tuple.
	ReducePeakReductionMean = "peak_reduction_mean"
	// ReducePeakReductionBest maximizes reduction_pct over the BestOver
	// axis (e.g. retuning the GV per swept material), emitting the best
	// value and the winning axis value as "best_<axis>".
	ReducePeakReductionBest = "peak_reduction_best"
)

// KnownReducers lists every reducer name the engine accepts.
func KnownReducers() []string {
	return []string{ReducePeakReduction, ReducePeakReductionMean, ReducePeakReductionBest}
}

// Settings is a bag of named configuration values. Values must stay
// JSON-basic (bool, float64/int, string, []float64/[]any, nested
// map[string]any) so specs round-trip through files; the root package
// owns the key vocabulary and its mapping onto simulator Configs.
type Settings = map[string]any

// Case is one named settings overlay of a bundle axis — e.g. the
// "wa-oracle" variant of an ablation, which flips several knobs at
// once.
type Case struct {
	Name string   `json:"name"`
	Set  Settings `json:"set"`
}

// Axis is one swept dimension: either a scalar axis (Values, applied
// under the axis name as a setting) or a bundle axis (Cases, each a
// named overlay). Exactly one of Values/Cases must be non-empty.
type Axis struct {
	Name   string `json:"name"`
	Values []any  `json:"values,omitempty"`
	Cases  []Case `json:"cases,omitempty"`
}

// Baseline describes the reference runs reductions are measured
// against. The baseline configuration is the spec's Base with Set
// applied on top; one baseline runs per combination of the Vary axes'
// values (axes not listed are dropped — every point along them shares
// the same baseline).
type Baseline struct {
	Set  Settings `json:"set"`
	Vary []string `json:"vary,omitempty"`
}

// Spec is a declarative study: run the cross product of Axes over
// Base, compare each point against its matched Baseline run, and
// reduce with the named Reducer. The zero value is invalid; construct
// specs in Go or decode them from JSON and Validate before executing.
type Spec struct {
	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	Base        Settings  `json:"base,omitempty"`
	Axes        []Axis    `json:"axes,omitempty"`
	Baseline    *Baseline `json:"baseline,omitempty"`
	Reducer     string    `json:"reducer"`
	// MeanOver names the axes ReducePeakReductionMean averages out.
	MeanOver []string `json:"mean_over,omitempty"`
	// BestOver names the axis ReducePeakReductionBest maximizes over.
	BestOver string `json:"best_over,omitempty"`
}

// Point is one expanded grid point: its position in grid order, the
// axis labels that identify it (scalar value or case name per axis),
// and the merged settings to build its configuration from.
type Point struct {
	Index    int
	Labels   map[string]any
	Settings Settings
}

// Row is one reduced output row: the surviving axis labels plus the
// reducer's numeric outputs.
type Row struct {
	Labels map[string]any     `json:"labels"`
	Values map[string]float64 `json:"values"`
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("experiment: spec needs a name")
	}
	known := false
	for _, r := range KnownReducers() {
		if s.Reducer == r {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("experiment: unknown reducer %q (known: %v)", s.Reducer, KnownReducers())
	}
	seen := map[string]bool{}
	for _, ax := range s.Axes {
		switch {
		case ax.Name == "":
			return fmt.Errorf("experiment: axis needs a name")
		case seen[ax.Name]:
			return fmt.Errorf("experiment: duplicate axis %q", ax.Name)
		case len(ax.Values) == 0 && len(ax.Cases) == 0:
			return fmt.Errorf("experiment: axis %q has no values", ax.Name)
		case len(ax.Values) > 0 && len(ax.Cases) > 0:
			return fmt.Errorf("experiment: axis %q mixes scalar values and cases", ax.Name)
		}
		seen[ax.Name] = true
		names := map[string]bool{}
		for _, c := range ax.Cases {
			if c.Name == "" {
				return fmt.Errorf("experiment: axis %q has an unnamed case", ax.Name)
			}
			if names[c.Name] {
				return fmt.Errorf("experiment: axis %q duplicates case %q", ax.Name, c.Name)
			}
			names[c.Name] = true
		}
	}
	if s.Baseline == nil {
		return fmt.Errorf("experiment: spec %q needs a baseline (reducer %s compares against one)",
			s.Name, s.Reducer)
	}
	for _, v := range s.Baseline.Vary {
		if !seen[v] {
			return fmt.Errorf("experiment: baseline varies unknown axis %q", v)
		}
	}
	for _, m := range s.MeanOver {
		if !seen[m] {
			return fmt.Errorf("experiment: mean_over names unknown axis %q", m)
		}
	}
	if s.Reducer == ReducePeakReductionMean && len(s.MeanOver) == 0 {
		return fmt.Errorf("experiment: reducer %s needs mean_over axes", s.Reducer)
	}
	if s.Reducer == ReducePeakReductionBest {
		if s.BestOver == "" {
			return fmt.Errorf("experiment: reducer %s needs a best_over axis", s.Reducer)
		}
		if !seen[s.BestOver] {
			return fmt.Errorf("experiment: best_over names unknown axis %q", s.BestOver)
		}
	}
	return nil
}

// axisLabel returns axis ax's label for position i (scalar value or
// case name).
func axisLabel(ax Axis, i int) any {
	if len(ax.Cases) > 0 {
		return ax.Cases[i].Name
	}
	return ax.Values[i]
}

// axisLen returns the number of positions along ax.
func axisLen(ax Axis) int {
	if len(ax.Cases) > 0 {
		return len(ax.Cases)
	}
	return len(ax.Values)
}

// applyAxis merges axis ax's position i into settings.
func applyAxis(dst Settings, ax Axis, i int) {
	if len(ax.Cases) > 0 {
		for k, v := range ax.Cases[i].Set {
			dst[k] = v
		}
		return
	}
	dst[ax.Name] = ax.Values[i]
}

// expand builds the cross product of the given axes over base, in
// grid order: the last axis varies fastest. The expansion is
// deterministic — identical specs expand to identical point lists.
func expand(base Settings, axes []Axis) []Point {
	n := 1
	for _, ax := range axes {
		n *= axisLen(ax)
	}
	pts := make([]Point, 0, n)
	idx := make([]int, len(axes))
	for {
		p := Point{
			Index:    len(pts),
			Labels:   make(map[string]any, len(axes)),
			Settings: make(Settings, len(base)+len(axes)),
		}
		for k, v := range base {
			p.Settings[k] = v
		}
		for a, ax := range axes {
			p.Labels[ax.Name] = axisLabel(ax, idx[a])
			applyAxis(p.Settings, ax, idx[a])
		}
		pts = append(pts, p)
		// Odometer increment, last axis fastest.
		a := len(axes) - 1
		for ; a >= 0; a-- {
			idx[a]++
			if idx[a] < axisLen(axes[a]) {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			break
		}
	}
	return pts
}

// Points expands the full grid in deterministic order.
func (s Spec) Points() []Point {
	return expand(s.Base, s.Axes)
}

// BaselinePoints expands the baseline runs: the cross product of the
// Vary axes (in spec order) over Base, with Baseline.Set applied last
// so it wins over base and axis settings.
func (s Spec) BaselinePoints() []Point {
	if s.Baseline == nil {
		return nil
	}
	var vary []Axis
	for _, ax := range s.Axes {
		for _, name := range s.Baseline.Vary {
			if ax.Name == name {
				vary = append(vary, ax)
			}
		}
	}
	pts := expand(s.Base, vary)
	for i := range pts {
		for k, v := range s.Baseline.Set {
			pts[i].Settings[k] = v
		}
	}
	return pts
}

// BaselineIndex maps each grid point to its baseline: for point p,
// out[p.Index] is the index into BaselinePoints() of the baseline
// sharing p's Vary-axis labels.
func (s Spec) BaselineIndex(points, baselines []Point) ([]int, error) {
	byKey := make(map[string]int, len(baselines))
	for i, b := range baselines {
		k, err := varyKey(s.Baseline.Vary, b.Labels)
		if err != nil {
			return nil, err
		}
		byKey[k] = i
	}
	out := make([]int, len(points))
	for i, p := range points {
		k, err := varyKey(s.Baseline.Vary, p.Labels)
		if err != nil {
			return nil, err
		}
		b, ok := byKey[k]
		if !ok {
			return nil, fmt.Errorf("experiment: point %d has no baseline for %s", i, k)
		}
		out[i] = b
	}
	return out, nil
}

// varyKey canonicalizes the labels of the named axes into a matching
// key.
func varyKey(vary []string, labels map[string]any) (string, error) {
	vals := make([]any, len(vary))
	for i, name := range vary {
		vals[i] = labels[name]
	}
	b, err := json.Marshal(vals)
	if err != nil {
		return "", fmt.Errorf("experiment: unhashable labels: %w", err)
	}
	return string(b), nil
}

// Encode writes the spec as indented JSON.
func (s Spec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeSpec reads a spec that is exactly one JSON value (jsonio.Decode)
// and validates it, so typos in hand-written spec files fail loudly.
func DecodeSpec(r io.Reader) (Spec, error) {
	var s Spec
	if err := jsonio.Decode(r, &s); err != nil {
		return Spec{}, fmt.Errorf("experiment: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
