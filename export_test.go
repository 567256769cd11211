package vmt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmt/internal/trace"
	"vmt/internal/workload"
)

// exportResult serializes a result through WriteJSON.
func exportResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The export is lossless: reading it back reconstructs the whole
// outcome and a Config with the same cache key, and writing that back
// reproduces the bytes.
func TestResultJSONRoundTrip(t *testing.T) {
	grids := Scenario(4, PolicyVMTTA, 22)
	grids.Trace = smallTrace()
	grids.RecordGrids = true
	gridRes, err := Run(grids)
	if err != nil {
		t.Fatal(err)
	}
	faultRes, err := Run(correlatedScenario(PolicyVMTWA))
	if err != nil {
		t.Fatal(err)
	}
	src := sessionConfig()
	src.Source = &workload.SourceSpec{Kind: "bursty", Level: 0.3,
		BurstUtil: 0.8, BurstProb: 0.2, EpochMin: 10}
	src.Horizon = 40 * time.Minute
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1000); err != nil {
		t.Fatal(err)
	}
	srcRes, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(gridRes.AirTempGrid) == 0 || faultRes.DomainTrips == 0 || faultRes.ReportsQuarantined == 0 ||
		faultRes.TaskArrivals == 0 {
		t.Fatal("the round-trip results do not exercise grids, domain trips, quarantines and task counts")
	}

	for name, res := range map[string]*Result{"grids": gridRes, "faults": faultRes, "source": srcRes} {
		data := exportResult(t, res)
		back, err := ReadResultJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := exportResult(t, back); !bytes.Equal(again, data) {
			t.Fatalf("%s: re-export differs:\n%s\nwant:\n%s", name, again, data)
		}
		if d := identicalOutcome(res, back); d != "" {
			t.Fatalf("%s: read-back outcome: %s", name, d)
		}
		want, err := configKey(res.Config)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := configKey(back.Config); err != nil || got != want {
			t.Fatalf("%s: read-back config key %s (%v), want %s", name, got, err, want)
		}
	}
}

// TestResultFieldsAllExported pins that no Result field is left out of
// the export.
func TestResultFieldsAllExported(t *testing.T) {
	rt := reflect.TypeOf(Result{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if name := strings.Split(f.Tag.Get("json"), ",")[0]; name == "" || name == "-" {
			t.Errorf("Result.%s has no JSON name, so WriteJSON drops it", f.Name)
		}
	}
}

func TestResultJSONOmitsAbsentSeries(t *testing.T) {
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "hot_group_temp_c") {
		t.Fatal("baseline export should omit hot-group series")
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.HotGroupTempC != nil {
		t.Fatal("absent series should stay nil")
	}
}

func TestReadResultJSONErrors(t *testing.T) {
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	valid := exportResult(t, res)
	// edit applies change to the valid export's top-level object and
	// its config object, and re-encodes the result.
	type object = map[string]json.RawMessage
	edit := func(change func(top, config object)) string {
		var top, config object
		if err := json.Unmarshal(valid, &top); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(top["config"], &config); err != nil {
			t.Fatal(err)
		}
		change(top, config)
		b, err := json.Marshal(config)
		if err != nil {
			t.Fatal(err)
		}
		top["config"] = b
		if b, err = json.Marshal(top); err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if _, err := ReadResultJSON(strings.NewReader(edit(func(_, _ object) {}))); err != nil {
		t.Fatalf("the re-encoded export should read back: %v", err)
	}
	for _, tc := range []struct{ name, in, want string }{
		{"bad json", "{garbage", "decoding result"},
		{"unknown key", edit(func(top, _ object) { top["step_seconds"] = json.RawMessage("60") }),
			`unknown field "step_seconds"`},
		{"unknown config key", edit(func(_, config object) { config["inlet_temp_c"] = json.RawMessage("22") }),
			`unknown field "inlet_temp_c"`},
		{"invalid config", edit(func(_, config object) { config["servers"] = json.RawMessage("0") }),
			"positive server count"},
		{"missing cooling series", edit(func(top, _ object) { delete(top, "cooling_load_w") }), "cooling_load_w"},
		{"zero-step cooling series", edit(func(top, _ object) {
			top["cooling_load_w"] = json.RawMessage(`{"start_ns":0,"step_ns":0,"values":[1]}`)
		}), "positive step"},
	} {
		if _, err := ReadResultJSON(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzReadResultJSON drives the result decoder with arbitrary input.
// It must never panic, and the WriteJSON of any result it accepts must
// be a fixed point: reading it back and writing it again reproduces it
// byte for byte.
func FuzzReadResultJSON(f *testing.F) {
	// Seed with the export of a short run plus the three malformed
	// shapes every strict reader rejects.
	cfg := Scenario(3, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	cfg.Horizon = 10 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(strings.TrimSpace(valid) + "}")
	f.Add(valid + valid)
	f.Add(strings.Replace(valid, "{", `{"step_seconds":60,`, 1))
	f.Add(`{"config":{"servers":1},"cooling_load_w":{"start_ns":0,"step_ns":60000000000,"values":[1,2]}}`)
	f.Add(`{"config":{"servers":1},"cooling_load_w":{"start_ns":0,"step_ns":0,"values":[1]}}`)
	f.Add(`{"config":{"servers":0}}`)
	f.Add(`{garbage`)

	f.Fuzz(func(t *testing.T, input string) {
		res, err := ReadResultJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := res.WriteJSON(&first); err != nil {
			t.Fatalf("export of an accepted result failed: %v", err)
		}
		again, err := ReadResultJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading the re-exported result failed: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("second export failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-export is not a fixed point:\n first: %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

func TestCustomTraceDrivesRun(t *testing.T) {
	// A flat 50% trace: cooling load should settle near the implied
	// steady state and stay flat.
	flat := make([]float64, 12*60)
	for i := range flat {
		flat[i] = 0.5
	}
	tr, err := trace.FromSamples(flat, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cfg := BaselineScenario(4)
	cfg.CustomTrace = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.CoolingLoadW.Len()
	if n != 12*60-1 {
		t.Fatalf("samples = %d", n)
	}
	// After warm-up, the load is flat.
	late := res.CoolingLoadW.Values[n-1]
	mid := res.CoolingLoadW.Values[n-120]
	if diff := late - mid; diff > 10 || diff < -10 {
		t.Fatalf("flat trace should give flat load: %v vs %v", mid, late)
	}
	bad := BaselineScenario(2)
	bad.CustomTrace = nil
	bad.Trace.Days = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("bad spec without custom trace should fail")
	}
}
