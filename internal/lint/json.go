package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"

	"vmt/internal/jsonio"
)

// NDJSON diagnostics for CI consumption: one JSON object per line, so
// a consumer can stream, grep, or `jq -c` without buffering the whole
// report. The stream includes suppressed findings with "allowed": true
// — CI dashboards want to see what was waived, not just what fired.

// jsonDiag is the wire form of one Diagnostic. Offset is omitted
// deliberately: it is a byte position into a FileSet the consumer
// doesn't have, and keeping it out makes the round trip exact.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Allowed  bool   `json:"allowed"`
}

// WriteJSON writes diagnostics as NDJSON, one object per line.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline NDJSON needs
	for _, d := range diags {
		jd := jsonDiag{
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Col:      d.Position.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Allowed:  d.Allowed,
		}
		if err := enc.Encode(jd); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSON decodes an NDJSON diagnostics stream written by WriteJSON.
// Blank lines are skipped; anything else that fails to decode is an
// error naming the offending line.
func ReadJSON(r io.Reader) ([]Diagnostic, error) {
	var diags []Diagnostic
	err := jsonio.Lines(r, func(line []byte) error {
		var jd jsonDiag
		if err := jsonio.Decode(bytes.NewReader(line), &jd); err != nil {
			return err
		}
		diags = append(diags, Diagnostic{
			Position: token.Position{Filename: jd.File, Line: jd.Line, Column: jd.Col},
			Analyzer: jd.Analyzer,
			Message:  jd.Message,
			Allowed:  jd.Allowed,
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: NDJSON %w", err)
	}
	return diags, nil
}
