// Package jsonio is the one JSON decode policy for outside input: a
// document is exactly one JSON value whose object keys are known and
// unrepeated, and an NDJSON stream is read one bounded line at a time.
package jsonio

import (
	"bufio"
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
)

// MaxLine bounds one line of an NDJSON stream: a line of MaxLine bytes
// or more is an error.
const MaxLine = 16 << 20

// Decode decodes exactly one JSON value from r into v. Anything after
// the value but whitespace is an error: a second value, or a stray }
// or ]. So is an object key that is not exactly one of the JSON names
// of the struct it decodes into (encoding/json would match it ignoring
// case), and a key repeated within any one object (encoding/json would
// keep the last). The keys inside a value of a type that decodes
// itself (json.Unmarshaler, encoding.TextUnmarshaler) are that type's
// to check, repeats aside.
func Decode(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	// Token, unlike More, reports a } or ] at the top level as an
	// error instead of the end of an enclosing array or object.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after the JSON value at offset %d", end)
	}
	kc := keyCheck{b: data[:end]}
	return kc.value(keysOf(reflect.TypeOf(v)))
}

// keys is what the objects of a JSON value may hold, by the type the
// value decodes into: for a struct its exact JSON names, each with its
// field's keys, and for a map, slice or array its elements' keys. A
// nil *keys names no keys, so that any key passes unless it repeats:
// it stands for an interface, a type that decodes itself, or a type
// whose JSON form is not an object (encoding/json rejects an object
// for that).
type keys struct {
	fields map[string]*keys // nil but for a struct
	elem   *keys
}

var (
	keysMu    sync.Mutex
	keysCache = map[reflect.Type]*keys{}

	unmarshalerType     = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// keysOf returns the keys of a value of type t, built once per type.
func keysOf(t reflect.Type) *keys {
	keysMu.Lock()
	defer keysMu.Unlock()
	return keysFor(t)
}

// keysFor is keysOf with keysMu held.
func keysFor(t reflect.Type) *keys {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if reflect.PointerTo(t).Implements(unmarshalerType) ||
		reflect.PointerTo(t).Implements(textUnmarshalerType) {
		return nil
	}
	if k, ok := keysCache[t]; ok {
		return k
	}
	k := &keys{}
	switch t.Kind() {
	case reflect.Struct:
		keysCache[t] = k // before the fields: a field may hold a t
		k.fields = map[string]*keys{}
		for name, ft := range jsonFields(t) {
			k.fields[name] = keysFor(ft)
		}
	case reflect.Map, reflect.Slice, reflect.Array:
		keysCache[t] = k
		k.elem = keysFor(t.Elem())
	default:
		return nil
	}
	return k
}

// jsonFields returns the JSON names of struct type t's fields, each
// with its field's type, by encoding/json's rules: a json tag's name
// replaces the Go name, a "-" tag drops the field, unexported fields
// are skipped, and the fields of an untagged embedded struct are
// promoted, a shallower field shadowing a promoted one of its name.
// (Where encoding/json drops a name that two fields of one depth
// share, its own unknown-field check rejects the key.)
func jsonFields(t reflect.Type) map[string]reflect.Type {
	fields := map[string]reflect.Type{}
	depths := map[string]int{}
	path := map[reflect.Type]bool{} // the embedded structs being walked
	var walk func(t reflect.Type, depth int)
	walk = func(t reflect.Type, depth int) {
		path[t] = true
		defer delete(path, t)
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			tag := sf.Tag.Get("json")
			name, _, _ := strings.Cut(tag, ",")
			ft := sf.Type
			if sf.Anonymous && ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			switch {
			case tag == "-":
			case sf.Anonymous && name == "" && ft.Kind() == reflect.Struct:
				if !path[ft] {
					walk(ft, depth+1)
				}
			case sf.IsExported():
				if name == "" {
					name = sf.Name
				}
				if d, ok := depths[name]; !ok || depth < d {
					fields[name], depths[name] = sf.Type, depth
				}
			}
		}
	}
	walk(t, 0)
	return fields
}

// keyCheck walks b, one syntactically valid JSON value, together with
// the keys its objects may hold, and rejects an object key they do not
// name or that repeats within its object.
type keyCheck struct {
	b []byte
	i int // the next byte to read
	// seen holds the keys read so far of the objects being walked,
	// innermost last. A key is checked against its object's earlier
	// keys one by one: this program's objects hold a few keys each.
	seen [][]byte
}

// value steps over the value at kc.i, whose objects may hold k.
func (kc *keyCheck) value(k *keys) error {
	kc.space()
	switch kc.b[kc.i] {
	case '{':
		return kc.object(k)
	case '[':
		var elem *keys
		if k != nil {
			elem = k.elem
		}
		for kc.i++; kc.more(']'); {
			if err := kc.value(elem); err != nil {
				return err
			}
		}
	case '"':
		kc.str()
	default: // a number, true, false or null
		for kc.i < len(kc.b) && strings.IndexByte(",]} \t\n\r", kc.b[kc.i]) < 0 {
			kc.i++
		}
	}
	return nil
}

// object steps over the object at kc.i, which may hold k.
func (kc *keyCheck) object(k *keys) error {
	var fields map[string]*keys
	var elem *keys
	if k != nil {
		fields, elem = k.fields, k.elem
	}
	base := len(kc.seen)
	defer func() { kc.seen = kc.seen[:base] }()
	for kc.i++; kc.more('}'); {
		q := kc.i
		key := kc.str()
		if bytes.IndexByte(key, '\\') >= 0 {
			var s string
			if err := json.Unmarshal(kc.b[q:kc.i], &s); err != nil {
				return err
			}
			key = []byte(s)
		}
		for _, prev := range kc.seen[base:] {
			if bytes.Equal(prev, key) {
				return fmt.Errorf("duplicate key %q", key)
			}
		}
		kc.seen = append(kc.seen, key)
		if fields != nil {
			fk, ok := fields[string(key)]
			if !ok {
				return fmt.Errorf("unknown field %q", key)
			}
			elem = fk
		}
		kc.space()
		kc.i++ // the colon
		if err := kc.value(elem); err != nil {
			return err
		}
	}
	return nil
}

// more steps over whitespace and a comma and reports whether the array
// or object being walked has another member; if not, it steps over the
// closing bracket.
func (kc *keyCheck) more(closing byte) bool {
	kc.space()
	if kc.b[kc.i] == ',' {
		kc.i++
		kc.space()
	}
	if kc.b[kc.i] == closing {
		kc.i++
		return false
	}
	return true
}

// str steps over the string at kc.i and returns the bytes between its
// quotes, escapes as written.
func (kc *keyCheck) str() []byte {
	start := kc.i + 1
	for kc.i = start; kc.b[kc.i] != '"'; kc.i++ {
		if kc.b[kc.i] == '\\' {
			kc.i++
		}
	}
	kc.i++
	return kc.b[start : kc.i-1]
}

// space steps over whitespace.
func (kc *keyCheck) space() {
	for kc.i < len(kc.b) && strings.IndexByte(" \t\n\r", kc.b[kc.i]) >= 0 {
		kc.i++
	}
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
