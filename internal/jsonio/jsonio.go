// Package jsonio is the one JSON decode policy for outside input: a
// document is exactly one JSON value with only known object keys, and
// an NDJSON stream is read one bounded line at a time.
package jsonio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxLine bounds one line of an NDJSON stream: a line of MaxLine bytes
// or more is an error.
const MaxLine = 16 << 20

// Decode decodes exactly one JSON value from r into v. An object key
// that matches no field of v is an error, and so is anything after the
// value but whitespace: a second value, or a stray } or ].
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	// Token, unlike More, reports a } or ] at the top level as an
	// error instead of the end of an enclosing array or object.
	_, err := dec.Token()
	if err == io.EOF {
		return nil
	}
	if err != nil && !errors.As(err, new(*json.SyntaxError)) {
		return err // a read error, not data
	}
	return fmt.Errorf("data after the JSON value at offset %d", end)
}

// Lines calls fn with each line of the NDJSON stream r, trimmed of
// surrounding whitespace; blank lines are skipped. Every error, fn's
// included, names its 1-based line. fn must not keep line.
func Lines(r io.Reader, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	n := 0
	for sc.Scan() {
		n++
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			if err := fn(line); err != nil {
				return fmt.Errorf("line %d: %w", n, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("%w: the cap is %d MiB", err, MaxLine>>20)
		}
		return fmt.Errorf("line %d: %w", n+1, err)
	}
	return nil
}
