package vmt

import (
	"bytes"
	"encoding/json"

	"vmt/internal/jsonio"
)

// Optional distinguishes "explicitly configured" from "left unset"
// without reserving an in-band sentinel value. Config fields whose
// zero value used to mean "pick the paper default" (the server spec,
// the PCM material, the inlet temperature, the wax threshold, the
// sacrifice fraction) are Optionals instead: withDefaults fills the
// unset ones by checking the explicit set flag, so no float equality
// against a sentinel is ever needed, and explicitly configuring the
// zero value (e.g. an inlet of 0 °C) becomes expressible.
//
// The zero Optional is unset. Wrap a value with Some to set it.
type Optional[T any] struct {
	value T
	set   bool
}

// Some returns an Optional holding v.
func Some[T any](v T) Optional[T] { return Optional[T]{value: v, set: true} }

// IsSet reports whether the Optional holds an explicitly set value.
func (o Optional[T]) IsSet() bool { return o.set }

// Value returns the held value, or T's zero value when unset. Resolved
// configurations (Result.Config, anything after withDefaults) always
// hold set values, so Value is the idiomatic accessor for them.
func (o Optional[T]) Value() T { return o.value }

// Or returns the held value when set, def otherwise.
func (o Optional[T]) Or(def T) T {
	if o.set {
		return o.value
	}
	return def
}

// MarshalJSON encodes only the held value, or null when unset, so a
// resolved Optional hashes the same whether its value was set
// explicitly or filled in by withDefaults.
func (o Optional[T]) MarshalJSON() ([]byte, error) {
	if !o.set {
		return []byte("null"), nil
	}
	return json.Marshal(o.value)
}

// UnmarshalJSON sets the Optional to the decoded value; null leaves it
// unset. Unknown object keys are rejected.
func (o *Optional[T]) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*o = Optional[T]{}
		return nil
	}
	var v T
	if err := jsonio.Decode(bytes.NewReader(b), &v); err != nil {
		return err
	}
	*o = Some(v)
	return nil
}
