package vmt

import (
	"encoding/json"
	"fmt"
	"io"

	"vmt/internal/jsonio"
)

// WriteJSON serializes the result for external tooling (plotting,
// archiving) as one JSON object: the resolved Config under "config",
// each series as {start_ns, step_ns, values}, every counter, and the
// grids when recorded. The form is lossless: encoding/json writes
// each float in the shortest form that parses back to the same bits,
// so ReadResultJSON reconstructs the Result exactly.
func (r *Result) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r)
}

// ReadResultJSON loads a result written by WriteJSON. Decoding is
// strict (jsonio.Decode), the echoed Config must validate, and the
// cooling-load series must be present with a positive step.
func ReadResultJSON(r io.Reader) (*Result, error) {
	var res Result
	if err := jsonio.Decode(r, &res); err != nil {
		return nil, fmt.Errorf("vmt: decoding result: %w", err)
	}
	if err := res.Config.Validate(); err != nil {
		return nil, fmt.Errorf("vmt: result config: %w", err)
	}
	if res.CoolingLoadW == nil || res.CoolingLoadW.Step <= 0 {
		return nil, fmt.Errorf("vmt: result needs a cooling_load_w series with a positive step")
	}
	return &res, nil
}
