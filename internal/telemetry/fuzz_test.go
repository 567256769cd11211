package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzReadJSONL drives the JSONL trace decoder with arbitrary input.
// The decoder must never panic, and on success every decoded event
// must satisfy the writer invariants and survive a write→read round
// trip unchanged.
func FuzzReadJSONL(f *testing.F) {
	// Seed with real writer output plus edge shapes.
	rec := sampleRecorder()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("\n\n")
	f.Add(`{"name":"physics","run":0,"sim_ns":60000000000,"wall_start_ns":10000,"wall_ns":5000}`)
	f.Add(`{"name":"sample","args":{"cooling_load_w":123.5}}`)
	f.Add(`{not json}`)
	f.Add(`{"name":""}`)
	f.Add(`{"name":"x","run":-1}`)
	f.Add(`{"name":"x"} trailing`)

	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadJSONL(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, ev := range events {
			if ev.Name == "" || ev.Run < 0 || ev.Wall < 0 || ev.WallStart < 0 {
				t.Fatalf("event %d violates invariants: %+v", i, ev)
			}
		}
		// Round trip: re-encode the decoded events and decode again;
		// the decoder must accept its own writer's output and agree.
		rt := NewRecorder()
		for _, ev := range events {
			rt.Emit(ev)
		}
		var out bytes.Buffer
		if err := rt.WriteJSONL(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("decode of re-encoded stream failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
	})
}

// FuzzReadWindows drives the streaming NDJSON window decoder with
// arbitrary input (mirror of FuzzReadJSONL for the windowed
// time-series stream). The decoder must never panic; anything it
// accepts must satisfy the sealed-window invariants and survive an
// encode→decode round trip.
func FuzzReadWindows(f *testing.F) {
	// Seed with real sink output plus edge shapes.
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	s := NewStream(StreamOptions{WindowTicks: 3, RingWindows: 2, Sink: sink})
	for i := int64(0); i < 10; i++ {
		s.Series("cooling_load_w").Observe(i, float64(100+i))
		s.Series("melt_frac").Observe(i, float64(i)/10)
	}
	s.Flush()
	f.Add(buf.String())
	f.Add("")
	f.Add("\n\n")
	f.Add(`{"series":"x","window":0,"start_tick":0,"count":1,"min":1,"max":1,"mean":1,"p99":1,"sum":1}`)
	f.Add(`{"series":"x","run":3,"window":2,"start_tick":120,"count":0,"min":0,"max":0,"mean":0,"p99":0,"sum":0}`)
	f.Add(`{"series":""}`)
	f.Add(`{"series":"x","count":1,"min":5,"max":1}`)
	f.Add(`{"series":"x"} trailing`)
	f.Add(`{not json}`)

	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadWindows(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, rec := range recs {
			if err := validateWindowRecord(rec); err != nil {
				t.Fatalf("record %d violates invariants after accept: %v", i, err)
			}
		}
		// Round trip: re-encode through the sink and decode again.
		var out bytes.Buffer
		rt := NewNDJSONSink(&out)
		for _, rec := range recs {
			rt.EmitWindow(rec)
		}
		if err := rt.Err(); err != nil {
			t.Fatalf("re-encode of accepted records failed: %v", err)
		}
		again, err := ReadWindows(&out)
		if err != nil {
			t.Fatalf("decode of re-encoded stream failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
		for i := range again {
			if again[i] != recs[i] {
				t.Fatalf("record %d changed in round trip: %+v -> %+v", i, recs[i], again[i])
			}
		}
	})
}

// FuzzReadFleetLog drives the fleet-log decoder with arbitrary input
// (the FuzzReadWindows pattern for the per-server fleet log). The
// decoder must never panic; anything it accepts must satisfy the
// publisher invariants, and its re-encoding must be a fixed point:
// decoding and re-encoding it reproduces it byte for byte.
func FuzzReadFleetLog(f *testing.F) {
	// Seed with real log output for a 3-server fleet plus the three
	// malformed shapes every strict reader rejects.
	var buf bytes.Buffer
	log := NewNDJSONFleetLog(&buf)
	for tick := int64(1); tick <= 3; tick++ {
		log.EmitFleet(&FleetSnapshot{Tick: tick, SimNS: tick * 60e9, Run: 1,
			CoolingLoadW: 900.5 + float64(tick), TotalPowerW: 1000, Servers: []ServerState{
				{ID: 0, AirTempC: 31.25, MeltFrac: 0.2, Group: "hot"},
				{ID: 1, AirTempC: 27, Group: "cold"},
				{ID: 2, AirTempC: 22, Crashed: true}}})
	}
	if err := log.Err(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	line := `{"tick":1,"sim_ns":60000000000,"cooling_load_w":900,"total_power_w":1000,"servers":[{"id":0,"air_temp_c":31,"melt_frac":0.2}]}`
	f.Add(line + "}")
	f.Add(line + " " + line)
	f.Add(`{"tick":1,"sim_ns":0,"cooling_load_w":0,"total_power_w":0,"servers":[{"id":0,"air_temp_c":22,"melt_frac":0,"fan_rpm":1}]}`)
	f.Add("")
	f.Add("\n\n")
	f.Add(`{"tick":1,"sim_ns":0,"cooling_load_w":0,"total_power_w":0,"servers":null}`)
	f.Add(`{"tick":1,"servers":[{"id":1},{"id":1}]}`)
	f.Add(`{"tick":-1}`)
	f.Add("null")
	f.Add(`{not json}`)

	f.Fuzz(func(t *testing.T, input string) {
		snaps, err := ReadFleetLog(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, snap := range snaps {
			if err := validateFleetSnapshot(snap); err != nil {
				t.Fatalf("accepted snapshot violates invariants: %v", err)
			}
		}
		encode := func(snaps []*FleetSnapshot) []byte {
			var out bytes.Buffer
			log := NewNDJSONFleetLog(&out)
			for _, snap := range snaps {
				log.EmitFleet(snap)
			}
			if err := log.Err(); err != nil {
				t.Fatalf("re-encode of accepted snapshots failed: %v", err)
			}
			return out.Bytes()
		}
		first := encode(snaps)
		again, err := ReadFleetLog(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("decode of re-encoded log failed: %v", err)
		}
		if second := encode(again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixed point:\n first: %s\nsecond: %s", first, second)
		}
	})
}

// FuzzWritePrometheus drives the exposition encoder with arbitrary
// snapshots (decoded via ReadSnapshot, so any accepted snapshot is
// fair game). The encoder must never panic or error on an in-memory
// writer, and its output must obey the exposition grammar: every line
// parses, metric names are sanitized, histogram bucket series are
// cumulative and end at the count.
func FuzzWritePrometheus(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("ticks").Add(7)
	reg.Gauge("melt frac").Set(0.25)
	h := reg.Histogram("phase_ms", 1, 10)
	h.Observe(0.5)
	h.Observe(25)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{}`)
	f.Add(`{"counters":[{"name":"0weird name!","value":1}]}`)
	f.Add(`{"gauges":[{"name":"g","value":1e308}]}`)
	f.Add(`{"histograms":[{"name":"h","count":1,"sum":2,"buckets":[{"le":null,"count":1}]}]}`)

	f.Fuzz(func(t *testing.T, input string) {
		snap, err := ReadSnapshot(strings.NewReader(input))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WritePrometheus(&out, snap); err != nil {
			t.Fatalf("encode of accepted snapshot failed: %v", err)
		}
		checkPrometheusInvariants(t, out.String())
	})
}

// FuzzReadSnapshot drives the metrics snapshot decoder with arbitrary
// JSON. The decoder must never panic; anything it accepts must
// re-encode to a snapshot it accepts again (idempotent validation).
func FuzzReadSnapshot(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("ticks").Add(7)
	reg.Gauge("melt_frac").Set(0.25)
	h := reg.Histogram("phase_ms", 1, 10)
	h.Observe(0.5)
	h.Observe(25)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{}`)
	f.Add(`{"counters":null,"gauges":null,"histograms":null}`)
	f.Add(`{"counters":[{"name":"c","value":1}]}`)
	f.Add(`{"histograms":[{"name":"h","count":1,"sum":2,"buckets":[{"le":null,"count":1}]}]}`)
	f.Add(`{"histograms":[{"name":"h","count":9,"sum":2,"buckets":[{"le":null,"count":1}]}]}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, input string) {
		snap, err := ReadSnapshot(strings.NewReader(input))
		if err != nil {
			return
		}
		re, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("re-marshal of accepted snapshot failed: %v", err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(re)); err != nil {
			t.Fatalf("validation not idempotent: %v\ninput: %s", err, re)
		}
	})
}
