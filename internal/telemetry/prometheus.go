package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4), the format a Prometheus server
// scrapes from /metrics:
//
//	# TYPE run_ticks counter
//	run_ticks 2880
//	# TYPE pcm_melt_frac histogram
//	pcm_melt_frac_bucket{le="0.1"} 12
//	...
//	pcm_melt_frac_bucket{le="+Inf"} 288000
//	pcm_melt_frac_sum 96432.5
//	pcm_melt_frac_count 288000
//
// Instrument names are sanitized to the Prometheus grammar (invalid
// runes become '_'); histogram buckets are converted from the
// registry's per-range counts to Prometheus's cumulative convention.
// Output is deterministic: snapshots are already name-sorted.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	for _, c := range snap.Counters {
		name := promName(c.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		name := promName(g.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		name := promName(h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if b.Le != nil {
				le = promFloat(*b.Le)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		// A histogram that never declared buckets still exposes the
		// mandatory +Inf bucket so scrapers see a complete family.
		if len(h.Buckets) == 0 {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promFloat(h.Sum), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitizes an instrument name to the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*. Empty names become "_".
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float in the exposition format: Prometheus spells
// special values +Inf/-Inf/NaN.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}
