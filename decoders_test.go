package vmt

import (
	"bytes"
	"encoding/json"
	"go/token"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"vmt/internal/experiment"
	"vmt/internal/fault"
	"vmt/internal/lint"
	"vmt/internal/pcm"
	"vmt/internal/telemetry"
	"vmt/internal/thermal"
	"vmt/internal/workload"
)

// readerOf adapts a reader of outside input to the table below.
func readerOf[T any](read func(io.Reader) (T, error)) func(io.Reader) error {
	return func(r io.Reader) error {
		_, err := read(r)
		return err
	}
}

// parserOf adapts a parser of a byte slice to the table below.
func parserOf[T any](parse func([]byte) (T, error)) func(io.Reader) error {
	return func(r io.Reader) error {
		b, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		_, err = parse(b)
		return err
	}
}

// firstMember returns the first key of the JSON object obj and that
// key's value as written.
func firstMember(t *testing.T, obj string) (string, string) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%q does not open an object: %v %v", obj, tok, err)
	}
	tok, err := dec.Token()
	key, ok := tok.(string)
	if err != nil || !ok {
		t.Fatalf("%q has no first key: %v %v", obj, tok, err)
	}
	var val json.RawMessage
	if err := dec.Decode(&val); err != nil {
		t.Fatal(err)
	}
	return key, string(val)
}

// swapCase swaps the case of every letter of s, which must have one.
func swapCase(t *testing.T, s string) string {
	t.Helper()
	out := strings.Map(func(r rune) rune {
		if unicode.IsUpper(r) {
			return unicode.ToLower(r)
		}
		return unicode.ToUpper(r)
	}, s)
	if out == s {
		t.Fatalf("key %q has no letter to swap the case of", s)
	}
	return out
}

// Every exported reader of outside input decodes through one policy
// (internal/jsonio): it accepts its own writer's output, and it rejects
// a } right after the (last) value, a second value after it on the
// same line, an unknown object key, a key that names a field only when
// case is ignored, and a key repeated in one object.
func TestReadersRejectTrailingDataAndUnknownKeys(t *testing.T) {
	cases := []struct {
		name   string
		stream bool // NDJSON: the variants edit the last line
		write  func(w io.Writer) error
		read   func(io.Reader) error
	}{
		{"fault.ParsePlan", false, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(fault.Plan{Crashes: []fault.Crash{{Server: 3, AtMin: 120}}})
		}, parserOf(fault.ParsePlan)},
		{"workload.ParseSourceSpec", false, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(workload.SourceSpec{Kind: "bursty", Level: 0.3,
				BurstUtil: 0.8, BurstProb: 0.2, EpochMin: 10})
		}, parserOf(workload.ParseSourceSpec)},
		{"experiment.DecodeSpec", false, GVSweepSpec(10, PolicyVMTTA, []float64{20, 22}).Encode,
			readerOf(experiment.DecodeSpec)},
		{"ReadResultJSON", false, func(w io.Writer) error {
			cfg := Scenario(3, PolicyVMTTA, 22)
			cfg.Trace = smallTrace()
			cfg.Horizon = 10 * time.Minute
			res, err := Run(cfg)
			if err != nil {
				return err
			}
			return res.WriteJSON(w)
		}, readerOf(ReadResultJSON)},
		{"telemetry.ReadSnapshot", false, func(w io.Writer) error {
			reg := telemetry.NewRegistry()
			reg.Counter("ticks").Add(7)
			reg.Gauge("melt_frac").Set(0.25)
			reg.Histogram("phase_ms", 1, 10).Observe(0.5)
			return reg.WriteJSON(w)
		}, readerOf(telemetry.ReadSnapshot)},
		{"telemetry.ReadJSONL", true, func(w io.Writer) error {
			rec := telemetry.NewRecorder()
			for i := 0; i < 2; i++ {
				rec.Emit(telemetry.SpanEvent{Name: "physics", At: time.Duration(i) * time.Minute,
					WallStart: 10 * time.Microsecond, Wall: 5 * time.Microsecond,
					Args: map[string]float64{"cooling_load_w": 100}})
			}
			return rec.WriteJSONL(w)
		}, readerOf(telemetry.ReadJSONL)},
		{"telemetry.ReadWindows", true, func(w io.Writer) error {
			sink := telemetry.NewNDJSONSink(w)
			s := telemetry.NewStream(telemetry.StreamOptions{WindowTicks: 3, RingWindows: 2, Sink: sink})
			for i := int64(0); i < 7; i++ {
				s.Series("cooling_load_w").Observe(i, float64(100+i))
			}
			s.Flush()
			return sink.Err()
		}, readerOf(telemetry.ReadWindows)},
		{"telemetry.ReadFleetLog", true, func(w io.Writer) error {
			log := telemetry.NewNDJSONFleetLog(w)
			for tick := int64(1); tick <= 2; tick++ {
				log.EmitFleet(&telemetry.FleetSnapshot{Tick: tick, SimNS: tick * int64(time.Minute),
					CoolingLoadW: 900, TotalPowerW: 1000, Servers: []telemetry.ServerState{
						{ID: 0, AirTempC: 31, MeltFrac: 0.2, Group: "hot"},
						{ID: 1, AirTempC: 27, Group: "cold"},
						{ID: 2, AirTempC: 22, Crashed: true}}})
			}
			return log.Err()
		}, readerOf(telemetry.ReadFleetLog)},
		{"thermal.ReadFleetState", true, func(w io.Writer) error {
			fl, err := thermal.NewFleet(thermal.PaperServer(), pcm.CommercialParaffin(), []float64{22, 22})
			if err != nil {
				return err
			}
			if _, err := fl.StepRange(0, 2, []float64{450, 100}, time.Minute); err != nil {
				return err
			}
			return fl.CaptureState().Encode(w)
		}, readerOf(thermal.ReadFleetState)},
		{"lint.ReadJSON", true, func(w io.Writer) error {
			return lint.WriteJSON(w, []lint.Diagnostic{
				{Position: token.Position{Filename: "a.go", Line: 3, Column: 2}, Analyzer: "floateq", Message: "m"},
				{Position: token.Position{Filename: "b.go", Line: 9, Column: 1}, Analyzer: "maporder",
					Message: "n", Allowed: true}})
		}, readerOf(lint.ReadJSON)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.write(&buf); err != nil {
				t.Fatal(err)
			}
			if err := c.read(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("rejects its writer's output: %v", err)
			}
			body := string(bytes.TrimRight(buf.Bytes(), " \n"))
			last := body
			if c.stream {
				last = body[strings.LastIndexByte(body, '\n')+1:]
			}
			head := body[:len(body)-len(last)]
			brace := strings.IndexByte(last, '{') + 1
			// The last object's first key, quoted, and its value.
			key, val := firstMember(t, last[brace-1:])
			miscased := strconv.Quote(swapCase(t, key))
			for _, v := range []struct{ name, input, want string }{
				{"trailing brace", body + "}\n", "after the JSON value"},
				{"second value", body + " " + last + "\n", "after the JSON value"},
				{"unknown key", head + last[:brace] + `"zz_unknown":1,` + last[brace:] + "\n", `unknown field "zz_unknown"`},
				{"miscased key", head + last[:brace] + strings.Replace(last[brace:], strconv.Quote(key), miscased, 1) + "\n",
					"unknown field " + miscased},
				{"duplicated key", head + last[:brace] + strconv.Quote(key) + ":" + val + "," + last[brace:] + "\n",
					"duplicate key " + strconv.Quote(key)},
			} {
				if err := c.read(strings.NewReader(v.input)); err == nil || !strings.Contains(err.Error(), v.want) {
					t.Errorf("%s: got error %v, want one containing %q", v.name, err, v.want)
				}
			}
		})
	}
}
