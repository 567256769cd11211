package workload

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"vmt/internal/jsonio"
)

// SourceSpec is the declarative, JSON-serializable description of an
// open-loop job source — the arrival-stream sibling of fault.Plan. A
// spec names a generator kind and its parameters; unknown fields are
// rejected, valid specs re-encode to a canonical fixed point (the
// property the run-cache key depends on), and New builds the
// JobSource.
//
// Kinds and their parameters (cross-kind parameters must be unset):
//
//	"poisson":    level, events        — shot noise around level
//	"bursty":     level, burst_util, burst_prob, epoch_min — MMPP on/off
//	"flashcrowd": level, spike_util, spike_every_min, spike_decay_min
//
// step_s (default 60) sets the sampling granularity of the per-tick
// kinds; seed selects the deterministic stream.
type SourceSpec struct {
	// Kind selects the generator: "poisson", "bursty", or "flashcrowd".
	Kind string `json:"kind"`
	// Seed drives the generator's substreams; same seed, same stream.
	Seed uint64 `json:"seed,omitempty"`
	// StepS is the sampling granularity in seconds (default 60).
	StepS float64 `json:"step_s,omitempty"`
	// Level is the base (calm/mean) target utilization in (0,1].
	Level float64 `json:"level,omitempty"`

	// Events is the poisson kind's mean arrival events per step;
	// relative noise is 1/sqrt(events).
	Events float64 `json:"events,omitempty"`

	// BurstUtil is the bursty kind's in-burst utilization in (0,1].
	BurstUtil float64 `json:"burst_util,omitempty"`
	// BurstProb is the per-epoch burst probability in (0,1].
	BurstProb float64 `json:"burst_prob,omitempty"`
	// EpochMin is the bursty kind's epoch length in minutes.
	EpochMin float64 `json:"epoch_min,omitempty"`

	// SpikeUtil is the flashcrowd kind's spike amplitude (added to
	// Level, clamped to 1).
	SpikeUtil float64 `json:"spike_util,omitempty"`
	// SpikeEveryMin is the flashcrowd window length in minutes: one
	// spike launches per window.
	SpikeEveryMin float64 `json:"spike_every_min,omitempty"`
	// SpikeDecayMin is the spike's exponential decay constant in
	// minutes.
	SpikeDecayMin float64 `json:"spike_decay_min,omitempty"`
}

// isSet reports whether a float parameter was explicitly provided.
// Comparing bit patterns sidesteps float equality: only the exact zero
// value (the JSON-absent default) reads as unset.
func isSet(v float64) bool { return math.Float64bits(v) != 0 }

// finitePositive reports a usable parameter value: set, finite, > 0.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// Validate reports whether the spec is well-formed: a known kind, its
// required parameters in range, and no parameters from other kinds.
func (s *SourceSpec) Validate() error {
	type param struct {
		name string
		val  float64
	}
	poisson := []param{{"events", s.Events}}
	bursty := []param{{"burst_util", s.BurstUtil}, {"burst_prob", s.BurstProb}, {"epoch_min", s.EpochMin}}
	flash := []param{{"spike_util", s.SpikeUtil}, {"spike_every_min", s.SpikeEveryMin}, {"spike_decay_min", s.SpikeDecayMin}}

	var foreign []param
	switch s.Kind {
	case "poisson":
		foreign = append(bursty, flash...)
		if !finitePositive(s.Events) {
			return fmt.Errorf("workload: poisson source needs events > 0, got %v", s.Events)
		}
		if !(s.Level > 0 && s.Level <= 1) {
			return fmt.Errorf("workload: poisson source needs level in (0,1], got %v", s.Level)
		}
	case "bursty":
		foreign = append(poisson, flash...)
		if !(s.Level > 0 && s.Level <= 1) {
			return fmt.Errorf("workload: bursty source needs level in (0,1], got %v", s.Level)
		}
		if !(s.BurstUtil > 0 && s.BurstUtil <= 1) {
			return fmt.Errorf("workload: bursty source needs burst_util in (0,1], got %v", s.BurstUtil)
		}
		if !(s.BurstProb > 0 && s.BurstProb <= 1) {
			return fmt.Errorf("workload: bursty source needs burst_prob in (0,1], got %v", s.BurstProb)
		}
		if !finitePositive(s.EpochMin) {
			return fmt.Errorf("workload: bursty source needs epoch_min > 0, got %v", s.EpochMin)
		}
	case "flashcrowd":
		foreign = append(poisson, bursty...)
		if !(s.Level > 0 && s.Level <= 1) {
			return fmt.Errorf("workload: flashcrowd source needs level in (0,1], got %v", s.Level)
		}
		if !(s.SpikeUtil > 0 && s.SpikeUtil <= 1) {
			return fmt.Errorf("workload: flashcrowd source needs spike_util in (0,1], got %v", s.SpikeUtil)
		}
		if !finitePositive(s.SpikeEveryMin) {
			return fmt.Errorf("workload: flashcrowd source needs spike_every_min > 0, got %v", s.SpikeEveryMin)
		}
		if !finitePositive(s.SpikeDecayMin) {
			return fmt.Errorf("workload: flashcrowd source needs spike_decay_min > 0, got %v", s.SpikeDecayMin)
		}
	default:
		return fmt.Errorf("workload: unknown source kind %q", s.Kind)
	}
	for _, p := range foreign {
		if isSet(p.val) {
			return fmt.Errorf("workload: %s does not apply to kind %q", p.name, s.Kind)
		}
	}
	if isSet(s.StepS) && !finitePositive(s.StepS) {
		return fmt.Errorf("workload: step_s must be > 0, got %v", s.StepS)
	}
	return nil
}

// Step returns the sampling granularity: StepS seconds, defaulting to
// one minute when unset.
func (s *SourceSpec) Step() time.Duration {
	if !isSet(s.StepS) {
		return time.Minute
	}
	return time.Duration(s.StepS * float64(time.Second))
}

// New validates the spec and builds its JobSource.
func (s *SourceSpec) New() (JobSource, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	minutes := func(m float64) time.Duration {
		return time.Duration(m * float64(time.Minute))
	}
	switch s.Kind {
	case "poisson":
		return NewPoissonSource(s.Seed, s.Step(), s.Level, s.Events), nil
	case "bursty":
		return NewBurstySource(s.Seed, minutes(s.EpochMin), s.Level, s.BurstUtil, s.BurstProb), nil
	case "flashcrowd":
		return NewFlashCrowdSource(s.Seed, s.Level, s.SpikeUtil,
			minutes(s.SpikeEveryMin), minutes(s.SpikeDecayMin)), nil
	}
	return nil, fmt.Errorf("workload: unknown source kind %q", s.Kind)
}

// ParseSourceSpec decodes and validates a spec from one JSON value
// (jsonio.Decode), so typos fail loudly instead of silently defaulting.
func ParseSourceSpec(data []byte) (*SourceSpec, error) {
	var s SourceSpec
	if err := jsonio.Decode(bytes.NewReader(data), &s); err != nil {
		return nil, fmt.Errorf("workload: decoding source spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
