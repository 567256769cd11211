// Package workload defines the five Google-style datacenter workloads
// of the VMT paper's scale-out study (Table I), their thermal
// classification, and standard mixes.
//
// All five are user-facing: Web Search and Data Caching are latency
// critical (millisecond/microsecond QoS); Video Encoding, Virus
// Scanning, and Clustering demand near-term completion but tolerate
// seconds of slack, enabling contention-mitigation colocation.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Class is the VMT thermal classification of a workload: hot jobs can
// melt significant wax over a peak load cycle when grouped with other
// hot jobs; cold jobs cannot.
type Class int

const (
	// Cold workloads have power/temperature profiles too low to melt
	// wax even in isolation.
	Cold Class = iota
	// Hot workloads melt significant wax when colocated with other
	// hot jobs over a peak cycle.
	Hot
)

// String returns "hot" or "cold", matching the Table I labels.
func (c Class) String() string {
	if c == Hot {
		return "hot"
	}
	return "cold"
}

// Workload describes one of the service types placed on the cluster.
type Workload struct {
	// Name identifies the workload ("WebSearch", …).
	Name string
	// CPUPowerW is the dynamic power of the workload saturating a
	// single 8-core Xeon E7-4809 v4 CPU (Table I; each server carries
	// four such CPUs).
	CPUPowerW float64
	// Class is the VMT hot/cold classification derived from the power
	// profile.
	Class Class
	// LatencyCritical marks the strict-QoS services (Web Search, Data
	// Caching) whose queries cannot be deferred at all.
	LatencyCritical bool
}

// CoresPerCPU is the core count of the Xeon E7-4809 v4 that the
// Table I per-CPU wattages are normalized to.
const CoresPerCPU = 8

// PerCorePowerW returns the workload's dynamic power per occupied core.
func (w Workload) PerCorePowerW() float64 { return w.CPUPowerW / CoresPerCPU }

// Validate reports whether the definition is usable.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if w.CPUPowerW <= 0 {
		return fmt.Errorf("workload %s: non-positive CPU power %v", w.Name, w.CPUPowerW)
	}
	return nil
}

// The Table I workload catalog.
var (
	// WebSearch is the CloudSuite Web Search benchmark: sharded index
	// serving with strict QoS. Hot.
	WebSearch = Workload{Name: "WebSearch", CPUPowerW: 37.2, Class: Hot, LatencyCritical: true}
	// DataCaching is CloudSuite's Memcached serving a social-media
	// working set: memory bound, low CPU power. Cold.
	DataCaching = Workload{Name: "DataCaching", CPUPowerW: 13.5, Class: Cold, LatencyCritical: true}
	// VideoEncoding is SPEC 2006 h264: re-encoding uploads at several
	// bitrates. Compute heavy. Hot.
	VideoEncoding = Workload{Name: "VideoEncoding", CPUPowerW: 60.9, Class: Hot}
	// VirusScan scans freshly uploaded files before sharing. Very low
	// CPU power. Cold.
	VirusScan = Workload{Name: "VirusScan", CPUPowerW: 3.4, Class: Cold}
	// Clustering computes ad-targeting clusters from user actions.
	// Compute intensive. Hot.
	Clustering = Workload{Name: "Clustering", CPUPowerW: 59.5, Class: Hot}
)

// TableI returns the five scale-out-study workloads in the paper's
// table order.
func TableI() []Workload {
	return []Workload{WebSearch, DataCaching, VideoEncoding, VirusScan, Clustering}
}

// ByName returns the Table I workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range TableI() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Mix assigns each workload a share of the total cluster load. Shares
// must be positive and are normalized to sum to one.
type Mix struct {
	entries []MixEntry
	// given keeps the entries as passed to NewMix. They are the JSON
	// form: re-normalizing already normalized shares can move them by
	// an ulp, so only the given shares decode back to the identical mix.
	given []MixEntry
}

// MixEntry is one workload's share of a Mix.
type MixEntry struct {
	Workload Workload
	Share    float64
}

// NewMix builds a mix from workload/share pairs, normalizing shares.
func NewMix(entries ...MixEntry) (*Mix, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("workload: empty mix")
	}
	var total float64
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if err := e.Workload.Validate(); err != nil {
			return nil, err
		}
		if e.Share <= 0 {
			return nil, fmt.Errorf("workload: share for %s must be positive, got %v",
				e.Workload.Name, e.Share)
		}
		if seen[e.Workload.Name] {
			return nil, fmt.Errorf("workload: duplicate mix entry %s", e.Workload.Name)
		}
		seen[e.Workload.Name] = true
		total += e.Share
	}
	mix := &Mix{
		entries: make([]MixEntry, len(entries)),
		given:   make([]MixEntry, len(entries)),
	}
	copy(mix.entries, entries)
	copy(mix.given, entries)
	for i := range mix.entries {
		mix.entries[i].Share /= total
	}
	// Deterministic ordering by name for reproducibility.
	sort.Slice(mix.entries, func(i, j int) bool {
		return mix.entries[i].Workload.Name < mix.entries[j].Workload.Name
	})
	return mix, nil
}

// MarshalJSON encodes the entries as given to NewMix.
func (m *Mix) MarshalJSON() ([]byte, error) { return json.Marshal(m.given) }

// UnmarshalJSON decodes a MarshalJSON entry list through NewMix,
// rejecting unknown keys.
func (m *Mix) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var entries []MixEntry
	if err := dec.Decode(&entries); err != nil {
		return fmt.Errorf("workload: mix: %w", err)
	}
	mix, err := NewMix(entries...)
	if err != nil {
		return err
	}
	*m = *mix
	return nil
}

// Entries returns the normalized entries in name order.
func (m *Mix) Entries() []MixEntry {
	out := make([]MixEntry, len(m.entries))
	copy(out, m.entries)
	return out
}

// HotShare returns the fraction of load carried by hot-class
// workloads.
func (m *Mix) HotShare() float64 {
	var hot float64
	for _, e := range m.entries {
		if e.Workload.Class == Hot {
			hot += e.Share
		}
	}
	return hot
}

// Share returns the normalized share of the named workload (0 if
// absent).
func (m *Mix) Share(name string) float64 {
	for _, e := range m.entries {
		if e.Workload.Name == name {
			return e.Share
		}
	}
	return 0
}

// MeanPerCorePowerW returns the load-weighted mean per-core dynamic
// power of the mix — what a perfectly balanced (round-robin) scheduler
// sees on every server.
func (m *Mix) MeanPerCorePowerW() float64 {
	var p float64
	for _, e := range m.entries {
		p += e.Share * e.Workload.PerCorePowerW()
	}
	return p
}

// PaperMix returns the scale-out study's five-workload mix: the total
// Google-trace load divided so hot jobs carry roughly 60% and cold jobs
// 40% (Section IV-E).
func PaperMix() *Mix {
	m, err := NewMix(
		MixEntry{WebSearch, 0.25},
		MixEntry{DataCaching, 0.25},
		MixEntry{VideoEncoding, 0.15},
		MixEntry{VirusScan, 0.15},
		MixEntry{Clustering, 0.20},
	)
	if err != nil {
		panic("workload: PaperMix is invalid: " + err.Error())
	}
	return m
}

// PairMix returns a two-workload mix with the given work ratio
// (fraction of load on a; the remainder on b). Used by the Figure 1
// feasibility sweeps. ratio must lie strictly inside (0,1) to keep
// both entries present; use ratio 0/1 via single-workload mixes.
func PairMix(a, b Workload, ratio float64) (*Mix, error) {
	if ratio <= 0 || ratio >= 1 {
		return nil, fmt.Errorf("workload: pair ratio must be in (0,1), got %v", ratio)
	}
	return NewMix(MixEntry{a, ratio}, MixEntry{b, 1 - ratio})
}
