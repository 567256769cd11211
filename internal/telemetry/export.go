package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"vmt/internal/jsonio"
)

// WriteJSONL writes the recorded events one JSON object per line — the
// stream-friendly structured log form (jq-able, appendable).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format (the JSON
// understood by chrome://tracing and Perfetto). Timestamps and
// durations are in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object container variant of the
// trace_event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the recorded events as Chrome trace_event
// JSON, loadable directly in chrome://tracing or https://ui.perfetto.dev.
// Each batch run becomes a process (pid = run+1) and each phase name a
// named thread within it; spans are laid out on the wall-clock
// timeline with the simulation time attached as an argument.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()

	// Deterministic thread numbering: phase names sorted per run.
	type key struct {
		run  int
		name string
	}
	names := map[key]bool{}
	for _, ev := range events {
		names[key{ev.Run, ev.Name}] = true
	}
	keys := make([]key, 0, len(names))
	for k := range names { //vmtlint:allow maporder keys are sorted immediately below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].run != keys[j].run {
			return keys[i].run < keys[j].run
		}
		return keys[i].name < keys[j].name
	})
	tids := make(map[key]int, len(keys))
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	nextTid := map[int]int{}
	for _, k := range keys {
		nextTid[k.run]++
		tids[k] = nextTid[k.run]
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{
				Name: "process_name", Ph: "M", Pid: k.run + 1,
				Args: map[string]any{"name": fmt.Sprintf("vmt run %d", k.run)},
			},
			chromeEvent{
				Name: "thread_name", Ph: "M", Pid: k.run + 1, Tid: tids[k],
				Args: map[string]any{"name": k.name},
			})
	}

	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  "vmt",
			Ph:   "X",
			Ts:   float64(ev.WallStart) / float64(time.Microsecond),
			Dur:  float64(ev.Wall) / float64(time.Microsecond),
			Pid:  ev.Run + 1,
			Tid:  tids[key{ev.Run, ev.Name}],
			Args: map[string]any{"sim_time_s": ev.At.Seconds()},
		}
		for k, v := range ev.Args {
			ce.Args[k] = v
		}
		out.TraceEvents = append(out.TraceEvents, ce)
		// Band profiling attaches an allocation delta; surface it as a
		// Chrome counter event ("C") so Perfetto draws a per-phase
		// allocation track alongside the spans.
		if ev.AllocBytes > 0 {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "alloc_bytes",
				Cat:  "vmt",
				Ph:   "C",
				Ts:   float64(ev.WallStart) / float64(time.Microsecond),
				Pid:  ev.Run + 1,
				Args: map[string]any{ev.Name: float64(ev.AllocBytes)},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadJSONL decodes a stream in the WriteJSONL format back into span
// events: one JSON object per line, blank lines ignored. It is the
// inverse of WriteJSONL — a round trip reproduces the event slice
// exactly. Any malformed line aborts with an error naming the line.
func ReadJSONL(r io.Reader) ([]SpanEvent, error) {
	return readLines(r, "jsonl", validateSpanEvent)
}

// readLines decodes r one T per line (jsonio.Lines, jsonio.Decode) and
// checks each with valid; stream names the format in errors.
func readLines[T any](r io.Reader, stream string, valid func(T) error) ([]T, error) {
	var out []T
	err := jsonio.Lines(r, func(line []byte) error {
		var v T
		if err := jsonio.Decode(bytes.NewReader(line), &v); err != nil {
			return err
		}
		out = append(out, v)
		return valid(v)
	})
	if err != nil {
		return nil, fmt.Errorf("telemetry: %s %w", stream, err)
	}
	return out, nil
}

// validateSpanEvent rejects events no Tracer could have emitted, so
// downstream consumers of a decoded stream can rely on the same
// invariants the writers guarantee.
func validateSpanEvent(ev SpanEvent) error {
	if ev.Name == "" {
		return fmt.Errorf("event missing name")
	}
	if ev.Run < 0 {
		return fmt.Errorf("event %q: negative run %d", ev.Name, ev.Run)
	}
	if ev.Wall < 0 || ev.WallStart < 0 {
		return fmt.Errorf("event %q: negative wall time", ev.Name)
	}
	return nil
}

// ReadSnapshot decodes a metrics snapshot in the Registry.WriteJSON
// format and validates it: names must be present and unique per
// section, and each histogram's buckets must have increasing bounds
// ending in the one +Inf (null le) bucket, with per-range counts (each
// bucket counts the observations above the previous bound, unlike
// Prometheus's cumulative buckets) that sum to the total count. It is
// the inverse of WriteJSON for any snapshot a Registry can produce.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	if err := jsonio.Decode(r, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: snapshot: %w", err)
	}
	seen := map[string]bool{}
	uniq := func(section, name string) error {
		if name == "" {
			return fmt.Errorf("telemetry: snapshot: %s with empty name", section)
		}
		k := section + "\x00" + name
		if seen[k] {
			return fmt.Errorf("telemetry: snapshot: duplicate %s %q", section, name)
		}
		seen[k] = true
		return nil
	}
	for _, c := range snap.Counters {
		if err := uniq("counter", c.Name); err != nil {
			return Snapshot{}, err
		}
	}
	for _, g := range snap.Gauges {
		if err := uniq("gauge", g.Name); err != nil {
			return Snapshot{}, err
		}
	}
	for _, h := range snap.Histograms {
		if err := uniq("histogram", h.Name); err != nil {
			return Snapshot{}, err
		}
		if len(h.Buckets) == 0 {
			if h.Count != 0 {
				return Snapshot{}, fmt.Errorf("telemetry: snapshot: histogram %q: count %d with no buckets", h.Name, h.Count)
			}
			continue
		}
		var prevLe float64
		var total uint64
		for i, b := range h.Buckets {
			last := i == len(h.Buckets)-1
			if last != (b.Le == nil) {
				return Snapshot{}, fmt.Errorf("telemetry: snapshot: histogram %q: +Inf bucket must be last and only last", h.Name)
			}
			if b.Le != nil {
				if i > 0 && *b.Le <= prevLe {
					return Snapshot{}, fmt.Errorf("telemetry: snapshot: histogram %q: bucket bounds not increasing", h.Name)
				}
				prevLe = *b.Le
			}
			total += b.Count
		}
		if total != h.Count {
			return Snapshot{}, fmt.Errorf("telemetry: snapshot: histogram %q: bucket counts sum to %d, want %d", h.Name, total, h.Count)
		}
	}
	return snap, nil
}
