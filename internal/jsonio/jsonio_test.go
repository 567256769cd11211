package jsonio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

type point struct {
	X int    `json:"x"`
	Y *point `json:"y,omitempty"`
}

func TestDecode(t *testing.T) {
	for _, c := range []struct {
		in, err string // err "" means accepted
	}{
		{`{"x":1}`, ""},
		{" \t\n{\"x\":1}\n \r\n", ""},
		{`{"x":1,"y":{"x":2}}`, ""},
		{`{"x":1}}`, "data after the JSON value at offset 7"},
		{`{"x":1}]`, "data after the JSON value at offset 7"},
		{`{"x":1} {"x":2}`, "data after the JSON value at offset 7"},
		{`{"x":1} {"x":"garbage"`, "data after the JSON value at offset 7"},
		{`{"x":1},`, "data after the JSON value at offset 7"},
		{`{"x":1} x`, "data after the JSON value at offset 7"},
		{`{"x":1} 2`, "data after the JSON value at offset 7"},
		{`{"x":1,"z":2}`, `unknown field "z"`},
		{`{"x":1,"y":{"z":2}}`, `unknown field "z"`},
		{`{"x":1`, "unexpected EOF"},
		{``, "EOF"},
	} {
		var p point
		err := Decode(strings.NewReader(c.in), &p)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("Decode(%q) = %v, want success", c.in, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("Decode(%q) = %v, want an error containing %q", c.in, err, c.err)
		}
	}
}

// A read error after the value is reported as itself, not as trailing
// data.
func TestDecodeReadErrorAfterValue(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(`{"x":1}`), iotest.ErrReader(boom))
	var p point
	if err := Decode(r, &p); !errors.Is(err, boom) {
		t.Fatalf("Decode = %v, want %v", err, boom)
	}
}

func TestLines(t *testing.T) {
	var got []string
	err := Lines(strings.NewReader("a\n\n  b \r\n\t\nc"), func(line []byte) error {
		got = append(got, string(line))
		return nil
	})
	if err != nil || strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("Lines = %q, %v; want [a b c], nil", got, err)
	}
	// An error from fn names the 1-based line, blank lines counted.
	err = Lines(strings.NewReader("a\n\nbad\nc\n"), func(line []byte) error {
		if string(line) == "bad" {
			return errors.New("no")
		}
		return nil
	})
	if err == nil || err.Error() != "line 3: no" {
		t.Fatalf("Lines = %v, want line 3: no", err)
	}
}

// A line of MaxLine-1 bytes passes; a line of MaxLine bytes is an error
// that names its line and the cap.
func TestLinesCap(t *testing.T) {
	for _, n := range []int{MaxLine - 1, MaxLine} {
		r := io.MultiReader(strings.NewReader("{}\n"), strings.NewReader(strings.Repeat("x", n)),
			strings.NewReader("\n{}\n"))
		var lens []int
		err := Lines(r, func(line []byte) error {
			lens = append(lens, len(line))
			return nil
		})
		if n < MaxLine {
			if err != nil || fmt.Sprint(lens) != fmt.Sprint([]int{2, n, 2}) {
				t.Fatalf("a %d-byte line: lengths %v, err %v", n, lens, err)
			}
			continue
		}
		want := fmt.Sprintf("line 2: %v: the cap is 16 MiB", bufio.ErrTooLong)
		if err == nil || err.Error() != want || !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("a %d-byte line: err %v, want %q", n, err, want)
		}
	}
}
