package yamlite

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// shippedSpecs are every spec file the repository ships: the lab and
// fleet specs and the fluxperf benchmark's fleet spec.
func shippedSpecs(tb testing.TB) map[string][]byte {
	tb.Helper()
	var paths []string
	for _, pattern := range []string{"lab/specs/*.yaml", "fleet/specs/*.yaml", "bench/*.yaml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", pattern))
		if err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		tb.Fatal("no shipped specs found")
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[p] = data
	}
	return out
}

func TestShippedSpecsParse(t *testing.T) {
	for path, data := range shippedSpecs(t) {
		if _, err := Parse(data, "spec"); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

func TestParseShapes(t *testing.T) {
	got, err := Parse([]byte(`# comment
name: "smoke"
seed: 1   # trailing comment
sweep:
  workers: [1, 0]
  label: 'x'
empty: []
quoted: "smoke"   # note
single: 'a # b'
double: "a # b"
plain: smoke # note
apostrophe: don't # note
listed: ['a # b', "c"] # note
`), "p")
	if err != nil {
		t.Fatal(err)
	}
	want := Map{
		"name": {Scalar: "smoke"},
		"seed": {Scalar: "1"},
		"sweep": {IsMap: true, Child: Map{
			"workers": {IsList: true, List: []string{"1", "0"}},
			"label":   {Scalar: "x"},
		}},
		"empty": {IsList: true},
		// # starts a comment only outside a quoted span.
		"quoted": {Scalar: "smoke"},
		"single": {Scalar: "a # b"},
		"double": {Scalar: "a # b"},
		"plain":  {Scalar: "smoke"},
		// A quote inside a plain scalar opens no span.
		"apostrophe": {Scalar: "don't"},
		"listed":     {IsList: true, List: []string{"a # b", "c"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse = %#v\nwant %#v", got, want)
	}
}

// TestParseErrors pins every error Parse can return, each with the
// caller's prefix and the offending line number.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"tab", "a:\n\tb: 1", "p line 2: tabs are not allowed in spec indentation"},
		{"no colon", "seed 1", "p line 1: expected `key: value`, got \"seed 1\""},
		{"empty key", ": 1", "p line 1: empty key"},
		{"inconsistent indentation", "a:\n  b: 1\n    c: 2", `p line 3: inconsistent indentation 4 (block "a" uses 2)`},
		{"nested block", "a:\n  b:", "p line 2: nested blocks deeper than one level are not supported"},
		{"indented outside block", "  b: 1", "p line 1: indented entry outside any block"},
		{"unterminated list", "a: [1, 2", `p line 1: unterminated list "[1, 2"`},
		{"unterminated list in block", "a:\n  b: [1", `p line 2: unterminated list "[1"`},
		{"repeated scalar", "seed: 1\nseed: 2", `p line 2: duplicate key "seed"`},
		{"repeated block", "sweep:\n  pipelined: [true]\nsweep:\n  workers: [1]", `p line 3: duplicate key "sweep"`},
		{"block repeats scalar", "a: 1\na:\n  b: 1", `p line 2: duplicate key "a"`},
		{"scalar repeats block", "a:\n  b: 1\na: 1", `p line 3: duplicate key "a"`},
		{"repeated key in block", "a:\n  b: 1\n  b: 2", `p line 3: duplicate key "b" in block "a"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src), "p")
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestDecodeErrors pins every decoder error, each led by the caller's
// label.
func TestDecodeErrors(t *testing.T) {
	list := func(items ...string) Value { return Value{IsList: true, List: items} }
	scalar := func(s string) Value { return Value{Scalar: s} }
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"string of list", func() error { _, err := String(list("a"), "L"); return err }, "L: expected a scalar"},
		{"string of map", func() error { _, err := String(Value{IsMap: true}, "L"); return err }, "L: expected a scalar"},
		{"int", func() error { _, err := Int(scalar("x"), "L"); return err }, `L: "x" is not an integer`},
		{"int of list", func() error { _, err := Int(list("1"), "L"); return err }, "L: expected a scalar"},
		{"float", func() error { _, err := Float(scalar("x"), "L"); return err }, `L: "x" is not a number`},
		{"bool", func() error { _, err := Bool(scalar("yes"), "L"); return err }, `L: "yes" is not a bool`},
		{"list of scalar", func() error { _, err := List(scalar("1"), "L"); return err }, "L: expected a flow list like [1, 2]"},
		{"int list", func() error { _, err := IntList(list("1", "x"), "L"); return err }, `L: "x" is not an integer`},
		{"int list of scalar", func() error { _, err := IntList(scalar("1"), "L"); return err }, "L: expected a flow list like [1, 2]"},
		{"float list", func() error { _, err := FloatList(list("x"), "L"); return err }, `L: "x" is not a number`},
		{"bool list", func() error { _, err := BoolList(list("true", "maybe"), "L"); return err }, `L: "maybe" is not a bool`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// FuzzParse feeds Parse arbitrary text, seeded with every shipped spec:
// it never panics, and every error it returns starts with the caller's
// prefix and names a line.
func FuzzParse(f *testing.F) {
	for _, data := range shippedSpecs(f) {
		f.Add(data)
	}
	f.Add([]byte("seed: 1\nseed: 2\n"))
	f.Add([]byte("a:\n  b: [1, 2\n\tc: 3\n"))
	f.Add([]byte("name: \"smoke\"   # note\n"))
	f.Add([]byte("name: 'a # b'\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := Parse(data, "fuzz: spec")
		if err != nil && !strings.HasPrefix(err.Error(), "fuzz: spec line ") {
			t.Fatalf("error lacks the caller's prefix and a line: %v", err)
		}
	})
}
