// Package yamlite is a deliberately small YAML-subset parser shared by
// the declarative spec surfaces (fluxlab experiment specs, fluxfleet
// workload specs). The container bakes in no YAML dependency, and a
// spec needs exactly three shapes: top-level scalars, one level of
// nested maps, and flow-style scalar lists ([1, 2, 3]). Anything
// outside that subset is a parse error with a line number — specs are
// configuration, and configuration that half-parses is worse than
// configuration that refuses to.
//
// Every function takes a caller-supplied error label so each spec
// surface keeps its own error vocabulary ("lab: spec line 3: ...",
// "fleet: spec key users: ..."): error strings are part of the lab
// package's tested behaviour and must not drift when parsing moves.
package yamlite

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is either a string scalar, a []string flow list, or a Map for
// nested blocks.
type Value struct {
	Scalar string
	List   []string
	Child  Map
	IsList bool
	IsMap  bool
}

// Map preserves nothing about order; spec decoding addresses keys
// explicitly (see SortedKeys for deterministic iteration).
type Map map[string]Value

// Parse parses the spec subset: `key: value`, `key: [a, b]`, and
// `key:` followed by a consistently deeper-indented block of the same
// shapes (one nesting level). A key may appear once at top level and
// once within each block; a repeat is an error rather than a silent
// overwrite. Parse errors are prefixed with errPrefix, e.g.
// Parse(data, "lab: spec") yields "lab: spec line 7: ...".
func Parse(data []byte, errPrefix string) (Map, error) {
	root := Map{}
	var (
		blockKey    string // open nested block, "" at top level
		blockIndent = -1   // indentation of the open block's entries
		block       Map    // entries of the open block
	)
	closeBlock := func() {
		if blockKey != "" {
			root[blockKey] = Value{Child: block, IsMap: true}
			blockKey, blockIndent, block = "", -1, nil
		}
	}
	for ln, raw := range strings.Split(string(data), "\n") {
		line := stripComment(raw)
		if strings.TrimSpace(line) == "" {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if strings.Contains(line, "\t") {
			return nil, fmt.Errorf("%s line %d: tabs are not allowed in spec indentation", errPrefix, ln+1)
		}
		trimmed := strings.TrimSpace(line)
		key, rest, ok := strings.Cut(trimmed, ":")
		if !ok {
			return nil, fmt.Errorf("%s line %d: expected `key: value`, got %q", errPrefix, ln+1, trimmed)
		}
		key = strings.TrimSpace(key)
		rest = strings.TrimSpace(rest)
		if key == "" {
			return nil, fmt.Errorf("%s line %d: empty key", errPrefix, ln+1)
		}
		switch {
		case indent == 0:
			closeBlock()
			if _, dup := root[key]; dup {
				return nil, fmt.Errorf("%s line %d: duplicate key %q", errPrefix, ln+1, key)
			}
			if rest == "" {
				// Opens a nested block; entries follow deeper-indented.
				blockKey, block = key, Map{}
				continue
			}
			v, err := parseScalar(rest, errPrefix, ln+1)
			if err != nil {
				return nil, err
			}
			root[key] = v
		case blockKey != "":
			if blockIndent == -1 {
				blockIndent = indent
			}
			if indent != blockIndent {
				return nil, fmt.Errorf("%s line %d: inconsistent indentation %d (block %q uses %d)", errPrefix, ln+1, indent, blockKey, blockIndent)
			}
			if rest == "" {
				return nil, fmt.Errorf("%s line %d: nested blocks deeper than one level are not supported", errPrefix, ln+1)
			}
			if _, dup := block[key]; dup {
				return nil, fmt.Errorf("%s line %d: duplicate key %q in block %q", errPrefix, ln+1, key, blockKey)
			}
			v, err := parseScalar(rest, errPrefix, ln+1)
			if err != nil {
				return nil, err
			}
			block[key] = v
		default:
			return nil, fmt.Errorf("%s line %d: indented entry outside any block", errPrefix, ln+1)
		}
	}
	closeBlock()
	return root, nil
}

// stripComment cuts line at the first # outside a quoted span ("…" or
// '…'). As in YAML, a quote opens a span only where a scalar starts,
// after a colon, bracket or comma, so an apostrophe in a plain scalar
// (don't) opens none.
func stripComment(line string) string {
	var quote, last byte // last: the previous non-space byte outside quotes
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case (c == '"' || c == '\'') && strings.IndexByte(":[,", last) >= 0:
			quote = c
		case c == '#':
			return line[:i]
		case c != ' ':
			last = c
		}
	}
	return line
}

// parseScalar parses a scalar or a flow list into a Value.
func parseScalar(s, errPrefix string, line int) (Value, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return Value{}, fmt.Errorf("%s line %d: unterminated list %q", errPrefix, line, s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		v := Value{IsList: true}
		if inner == "" {
			return v, nil
		}
		for _, item := range strings.Split(inner, ",") {
			v.List = append(v.List, strings.Trim(strings.TrimSpace(item), `"'`))
		}
		return v, nil
	}
	return Value{Scalar: strings.Trim(s, `"'`)}, nil
}

// SortedKeys returns the map's keys in ascending order so decoders can
// iterate deterministically.
func SortedKeys(m Map) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// String decodes a scalar. label names the key in errors, including any
// caller prefix: String(v, "lab: spec key workers").
func String(v Value, label string) (string, error) {
	if v.IsList || v.IsMap {
		return "", fmt.Errorf("%s: expected a scalar", label)
	}
	return v.Scalar, nil
}

// Int decodes an integer scalar.
func Int(v Value, label string) (int, error) {
	s, err := String(v, label)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not an integer", label, s)
	}
	return n, nil
}

// Float decodes a float scalar.
func Float(v Value, label string) (float64, error) {
	s, err := String(v, label)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not a number", label, s)
	}
	return f, nil
}

// Bool decodes a bool scalar (exactly "true" or "false").
func Bool(v Value, label string) (bool, error) {
	s, err := String(v, label)
	if err != nil {
		return false, err
	}
	switch s {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("%s: %q is not a bool", label, s)
}

// List decodes a flow list of raw strings.
func List(v Value, label string) ([]string, error) {
	if !v.IsList {
		return nil, fmt.Errorf("%s: expected a flow list like [1, 2]", label)
	}
	return v.List, nil
}

// IntList decodes a flow list of integers.
func IntList(v Value, label string) ([]int, error) {
	items, err := List(v, label)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(items))
	for _, s := range items {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not an integer", label, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// FloatList decodes a flow list of floats.
func FloatList(v Value, label string) ([]float64, error) {
	items, err := List(v, label)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(items))
	for _, s := range items {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not a number", label, s)
		}
		out = append(out, f)
	}
	return out, nil
}

// BoolList decodes a flow list of bools.
func BoolList(v Value, label string) ([]bool, error) {
	items, err := List(v, label)
	if err != nil {
		return nil, err
	}
	out := make([]bool, 0, len(items))
	for _, s := range items {
		b, err := Bool(Value{Scalar: s}, label)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
