package fault

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzPlanJSON drives ParsePlan, the decode path spec files and
// -faults take (jsonio.Decode into Plan, then Validate): no input may
// panic, and any plan it accepts must survive an encode-decode round
// trip unchanged — the property the run-cache key and spec files both
// depend on.
func FuzzPlanJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed":7}`))
	f.Add([]byte(`{"crashes":[{"server":0,"at_min":30,"repair_after_min":60}]}`))
	f.Add([]byte(`{"stochastic":{"rate_per_hour":0.01,"repair_after_min":120}}`))
	f.Add([]byte(`{"stochastic":{"arrhenius":true,"mtbf_hours":5000}}`))
	f.Add([]byte(`{"sensors":[{"server":1,"kind":"noise","start_min":0,"stdev_c":0.5}]}`))
	f.Add([]byte(`{"sensors":[{"server":0,"kind":"dropout","start_min":10},{"server":0,"kind":"stuck","start_min":20,"end_min":30}]}`))
	f.Add([]byte(`{"crashes":[{"server":0,"at_min":1e999}]}`))
	f.Add([]byte(`{"stochastic":{"rate_per_hour":-1}}`))
	f.Add([]byte(`{"topology":{"servers_per_rack":4,"racks_per_row":3,"rows_per_zone":2},"domains":[{"kind":"rack","index":1,"at_min":60,"repair_after_min":120}]}`))
	f.Add([]byte(`{"topology":{"servers_per_rack":4,"racks_per_row":3,"rows_per_zone":2},"domains":[{"kind":"zone","index":0,"mode":"derate","at_min":30,"repair_after_min":60,"derate_inlet_delta_c":5}]}`))
	f.Add([]byte(`{"topology":{"servers_per_rack":8,"racks_per_row":2,"rows_per_zone":1},"stochastic_domains":{"kind":"rack","rate_per_hour":0.01,"repair_after_min":90}}`))
	f.Add([]byte(`{"byzantine":[{"server":0,"kind":"melt","start_min":10,"bias":0.5,"jitter":0.1},{"server":1,"kind":"util","start_min":20,"end_min":90,"bias":-0.3}]}`))
	f.Add([]byte(`{"domains":[{"kind":"rack","index":0,"at_min":5}]}`))
	f.Add([]byte(`{"topology":{"servers_per_rack":4,"racks_per_row":3,"rows_per_zone":2},"domains":[{"kind":"pdu","index":0,"at_min":5}]}`))
	f.Add([]byte(`{"topology":{"servers_per_rack":0,"racks_per_row":3,"rows_per_zone":2}}`))
	f.Add([]byte(`{"byzantine":[{"server":0,"kind":"melt","start_min":10,"bias":7}]}`))
	f.Add([]byte(`{"crashes":[{"server":3,"at_min":120}]}}`))
	f.Add([]byte(`{"crashes":[{"server":3,"at_min":120}]} {"crashes":"garbage"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return // malformed or invalid plans are rejected, never panic
		}
		// Valid plans round-trip bit-identically.
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("valid plan failed to encode: %v", err)
		}
		q, err := ParsePlan(b)
		if err != nil {
			t.Fatalf("re-decoding a valid plan: %v", err)
		}
		// Canonical-form fixpoint: the re-encoded plan must match the
		// first encoding byte for byte — the property the run-cache key
		// depends on. (DeepEqual is too strict here: an explicit empty
		// JSON array decodes to an empty slice that omitempty then
		// drops, a semantic no-op.)
		b2, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("canonical form unstable:\n first: %s\nsecond: %s", b, b2)
		}
	})
}
