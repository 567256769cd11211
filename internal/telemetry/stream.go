package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// NDJSONSink streams sealed windows as newline-delimited JSON, one
// WindowRecord per line, flushing after every window — so a long run's
// telemetry is on disk (and tail-able) while the run is still going,
// and the process holds O(1) buffered bytes instead of O(run) events.
// Safe for concurrent use; encode errors are latched and reported by
// Err/Close rather than panicking mid-run.
type NDJSONSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewNDJSONSink returns a sink writing to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: bufio.NewWriter(w)}
}

// EmitWindow implements WindowSink: encode one line and flush.
func (s *NDJSONSink) EmitWindow(rec WindowRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		s.err = fmt.Errorf("telemetry: ndjson encode: %w", err)
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = fmt.Errorf("telemetry: ndjson write: %w", err)
		return
	}
	if err := s.w.Flush(); err != nil {
		s.err = fmt.Errorf("telemetry: ndjson flush: %w", err)
	}
}

// Err returns the first write error, if any.
func (s *NDJSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadWindows decodes a stream in the NDJSONSink format: one
// WindowRecord JSON object per line, blank lines ignored. It is the
// inverse of the sink for any stream a Stream can produce; every
// decoded record satisfies the sealed-window invariants (non-empty
// series, min ≤ mean ≤ max, p99 within range). A malformed line aborts
// with an error naming the line.
func ReadWindows(r io.Reader) ([]WindowRecord, error) {
	return readLines(r, "ndjson", validateWindowRecord)
}
