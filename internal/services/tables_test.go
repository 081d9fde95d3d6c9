package services_test

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"flux/internal/aidl"
	"flux/internal/services"
)

// TestCompiledTablesMatchRules checks, for every shipped interface, that
// the tables aidl.Parse compiled agree with the name-based aidl.Rules:
// the drop targets ("this" resolved, duplicates removed, list order), the
// @if/@elif signatures mapped to parameter indexes in the triggering
// method and in each target, and each method's compared parameters.
func TestCompiledTablesMatchRules(t *testing.T) {
	comparedTotal := 0
	for _, spec := range services.AIDLSpecs() {
		itf := spec.Itf
		compared := map[string]map[int]bool{} // method → params some @if compares
		decorated := map[string]bool{}
		for _, r := range aidl.Rules(itf) {
			decorated[r.Method] = true
			m := itf.Method(r.Method)
			d := m.Drops()
			if len(r.DropMethods) == 0 {
				if d != nil {
					t.Errorf("%s.%s: drop table without @drop", itf.Name, r.Method)
				}
				continue
			}
			if d == nil {
				t.Errorf("%s.%s: @drop %v compiled to no table", itf.Name, r.Method, r.DropMethods)
				continue
			}
			var targets []string
			for _, name := range r.DropMethods {
				if name == "this" {
					name = r.Method
				}
				if !slices.Contains(targets, name) {
					targets = append(targets, name)
				}
			}
			var got []string
			for _, tm := range d.Targets {
				got = append(got, tm.Name)
			}
			if !reflect.DeepEqual(got, targets) || !reflect.DeepEqual(d.TargetNames, targets) {
				t.Errorf("%s.%s: targets %v / names %v, want %v", itf.Name, r.Method, got, d.TargetNames, targets)
				continue
			}
			if d.Self != r.DropsSelf() {
				t.Errorf("%s.%s: Self = %v, rule drops self = %v", itf.Name, r.Method, d.Self, r.DropsSelf())
			}
			if !sameShape(d.Sigs, r.Signatures) {
				t.Errorf("%s.%s: Sigs %v do not match signatures %v", itf.Name, r.Method, d.Sigs, r.Signatures)
				continue
			}
			for ti, name := range targets {
				tm := itf.Method(name)
				if !sameShape(d.TargetSigs[ti], r.Signatures) {
					t.Errorf("%s.%s: TargetSigs[%s] %v do not match signatures %v", itf.Name, r.Method, name, d.TargetSigs[ti], r.Signatures)
					continue
				}
				for i, sig := range r.Signatures {
					for j, arg := range sig {
						if _, idx := m.Param(arg); d.Sigs[i][j] != idx {
							t.Errorf("%s.%s: @if %s is parameter %d, table says %d", itf.Name, r.Method, arg, idx, d.Sigs[i][j])
						}
						_, tidx := tm.Param(arg)
						if d.TargetSigs[ti][i][j] != tidx {
							t.Errorf("%s.%s: @if %s is parameter %d of target %s, table says %d", itf.Name, r.Method, arg, tidx, name, d.TargetSigs[ti][i][j])
						}
						if compared[name] == nil {
							compared[name] = map[int]bool{}
						}
						compared[name][tidx] = true
					}
				}
			}
		}
		for _, m := range itf.Methods {
			if !decorated[m.Name] && m.Drops() != nil {
				t.Errorf("%s.%s: undecorated method has a drop table", itf.Name, m.Name)
			}
			var want []int
			for idx := range compared[m.Name] {
				want = append(want, idx)
			}
			sort.Ints(want)
			if got := m.ComparedParams(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s.%s: compared params %v, want %v", itf.Name, m.Name, got, want)
			}
			comparedTotal += len(want)
		}
	}
	if comparedTotal == 0 {
		t.Fatal("no shipped interface compares any argument; the check is vacuous")
	}
}

// sameShape reports whether idx has one index per argument name of sigs.
func sameShape(idx [][]int, sigs [][]string) bool {
	if len(idx) != len(sigs) {
		return false
	}
	for i := range sigs {
		if len(idx[i]) != len(sigs[i]) {
			return false
		}
	}
	return true
}
