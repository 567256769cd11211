package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Fleet state telemetry: a per-tick snapshot of every server's
// observable state, published through an atomic pointer so a live
// endpoint (the cliobs /fleet handler) can scrape mid-run without
// touching the simulation goroutine, and optionally streamed to an
// NDJSON log — the per-server ground truth vmtdiff replays to
// pinpoint the first divergent tick/server/field between two runs.

// ServerState is one server's observable state at a sample tick.
type ServerState struct {
	ID       int     `json:"id"`
	AirTempC float64 `json:"air_temp_c"`
	MeltFrac float64 `json:"melt_frac"`
	// Group is the scheduler's placement group ("hot", "cold", or ""
	// for ungrouped baselines).
	Group string `json:"group,omitempty"`
	// Crashed reports fault-injected downtime.
	Crashed bool `json:"crashed,omitempty"`
}

// FleetSnapshot is the cluster's observable state at one sample tick.
type FleetSnapshot struct {
	// Tick is the sample index (1-based: the first sample after one
	// elapsed step is tick 1).
	Tick int64 `json:"tick"`
	// SimNS is the simulation time in nanoseconds.
	SimNS int64 `json:"sim_ns"`
	// Run is the batch run index (0 for a solo run).
	Run int `json:"run,omitempty"`
	// CoolingLoadW and TotalPowerW summarize the fleet.
	CoolingLoadW float64 `json:"cooling_load_w"`
	TotalPowerW  float64 `json:"total_power_w"`
	// Servers holds per-server state in server-ID order.
	Servers []ServerState `json:"servers"`
}

// FleetSink receives fleet snapshots as they are published.
// Implementations must be safe for concurrent use and must only
// record.
type FleetSink interface {
	EmitFleet(snap *FleetSnapshot)
}

// FleetPublisher retains the latest fleet snapshot behind an atomic
// pointer — a scrape-safe live view: the simulation goroutine
// publishes a fresh immutable snapshot each sample tick, readers load
// whatever is current without locks or tearing. An optional sink
// additionally receives every snapshot (the fleet log). A nil
// publisher ignores publishes, so call sites can hold one without
// branching.
type FleetPublisher struct {
	cur  atomic.Pointer[FleetSnapshot]
	sink FleetSink
}

// NewFleetPublisher returns a publisher; sink may be nil (live view
// only).
func NewFleetPublisher(sink FleetSink) *FleetPublisher {
	return &FleetPublisher{sink: sink}
}

// Publish installs snap as the current snapshot and forwards it to the
// sink. The caller must not mutate snap afterwards — readers hold it.
func (p *FleetPublisher) Publish(snap *FleetSnapshot) {
	if p == nil || snap == nil {
		return
	}
	p.cur.Store(snap)
	if p.sink != nil {
		p.sink.EmitFleet(snap)
	}
}

// Load returns the most recently published snapshot, or nil. The
// returned snapshot is shared — treat it as read-only.
func (p *FleetPublisher) Load() *FleetSnapshot {
	if p == nil {
		return nil
	}
	return p.cur.Load()
}

// NDJSONFleetLog streams fleet snapshots as newline-delimited JSON,
// one snapshot per line, flushed per line. Safe for concurrent use;
// errors latch like NDJSONSink's.
type NDJSONFleetLog struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // reused line buffer
	err error
}

// NewNDJSONFleetLog returns a log writing to w.
func NewNDJSONFleetLog(w io.Writer) *NDJSONFleetLog {
	return &NDJSONFleetLog{w: bufio.NewWriter(w)}
}

// EmitFleet implements FleetSink.
func (l *NDJSONFleetLog) EmitFleet(snap *FleetSnapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	// The log writes one full-fleet line per sample tick, so encoding is
	// the telemetry layer's hottest byte path; the hand-rolled encoder
	// (byte-identical to encoding/json for this shape) keeps it off the
	// reflection path and reuses one buffer across ticks.
	b, err := appendFleetJSON(l.buf[:0], snap)
	if err != nil {
		l.err = fmt.Errorf("telemetry: fleet log encode: %w", err)
		return
	}
	b = append(b, '\n')
	l.buf = b
	if _, err := l.w.Write(b); err != nil {
		l.err = fmt.Errorf("telemetry: fleet log write: %w", err)
		return
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("telemetry: fleet log flush: %w", err)
	}
}

// appendFleetJSON appends snap encoded exactly as encoding/json would
// (field order, omitempty, float formatting, string escaping), without
// the reflection cost — TestFleetEncoderMatchesEncodingJSON pins the
// byte equivalence.
func appendFleetJSON(b []byte, snap *FleetSnapshot) ([]byte, error) {
	var err error
	b = append(b, `{"tick":`...)
	b = strconv.AppendInt(b, snap.Tick, 10)
	b = append(b, `,"sim_ns":`...)
	b = strconv.AppendInt(b, snap.SimNS, 10)
	if snap.Run != 0 {
		b = append(b, `,"run":`...)
		b = strconv.AppendInt(b, int64(snap.Run), 10)
	}
	b = append(b, `,"cooling_load_w":`...)
	if b, err = appendJSONFloat(b, snap.CoolingLoadW); err != nil {
		return nil, err
	}
	b = append(b, `,"total_power_w":`...)
	if b, err = appendJSONFloat(b, snap.TotalPowerW); err != nil {
		return nil, err
	}
	b = append(b, `,"servers":`...)
	if snap.Servers == nil {
		return append(b, `null}`...), nil
	}
	b = append(b, '[')
	for i, sv := range snap.Servers {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(sv.ID), 10)
		b = append(b, `,"air_temp_c":`...)
		if b, err = appendJSONFloat(b, sv.AirTempC); err != nil {
			return nil, err
		}
		b = append(b, `,"melt_frac":`...)
		if b, err = appendJSONFloat(b, sv.MeltFrac); err != nil {
			return nil, err
		}
		if sv.Group != "" {
			b = append(b, `,"group":`...)
			b = appendJSONString(b, sv.Group)
		}
		if sv.Crashed {
			b = append(b, `,"crashed":true`...)
		}
		b = append(b, '}')
	}
	return append(b, `]}`...), nil
}

// appendJSONFloat mirrors encoding/json's float64 encoding: shortest
// representation, 'f' form except for very small/large magnitudes, and
// the same exponent cleanup. Non-finite values are an error, as in
// encoding/json.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("unsupported value: %g", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	//vmtlint:allow floateq exact zero test mirrors encoding/json's format selection bit-for-bit
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONString appends s as a JSON string. Plain ASCII (the group
// names the simulation emits) takes the fast path; anything needing
// escapes defers to encoding/json so the output stays byte-identical.
func appendJSONString(b []byte, s string) []byte {
	plain := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' ||
			c == '<' || c == '>' || c == '&' {
			plain = false
			break
		}
	}
	if plain {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	enc, err := json.Marshal(s)
	if err != nil {
		// A string never fails to marshal; keep the signature simple.
		return append(b, `""`...)
	}
	return append(b, enc...)
}

// Err returns the first write error, if any.
func (l *NDJSONFleetLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ReadFleetLog decodes a stream in the NDJSONFleetLog format. Every
// decoded snapshot satisfies the publisher invariants: non-negative
// tick/run, servers in strictly increasing ID order. A malformed line
// aborts with an error naming the line.
func ReadFleetLog(r io.Reader) ([]*FleetSnapshot, error) {
	return readLines(r, "fleet log", validateFleetSnapshot)
}

func validateFleetSnapshot(snap *FleetSnapshot) error {
	if snap == nil {
		return fmt.Errorf("snapshot is null")
	}
	if snap.Tick < 0 || snap.SimNS < 0 || snap.Run < 0 {
		return fmt.Errorf("snapshot tick %d: negative tick, time, or run", snap.Tick)
	}
	for i, sv := range snap.Servers {
		if i > 0 && sv.ID <= snap.Servers[i-1].ID {
			return fmt.Errorf("snapshot tick %d: server IDs not strictly increasing at index %d", snap.Tick, i)
		}
	}
	return nil
}
