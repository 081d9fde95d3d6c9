package record

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"flux/internal/aidl"
	"flux/internal/binder"
)

// Regression harness for the indexed, cached-signature prune path. A
// reference model re-implements the pre-sharding algorithm — flat scan
// over the app's entries, re-parsing each candidate parcel with
// aidl.ArgString — and a fixed-seed randomized workload is driven through
// both the real recorder and the model. The surviving logs must agree
// byte-for-byte (method sequence and marshalled request parcels, in
// order), proving the per-(interface, method) index and the append-time
// argument cache changed the cost of pruning, not its outcome.

// refEntry is a surviving call in the reference model.
type refEntry struct {
	method string
	data   []byte
}

// refModel replays the drop semantics the old implementation had.
type refModel struct {
	itf     *aidl.Interface
	rules   map[string]aidl.Rule
	entries []refEntry
}

func newRefModel(itf *aidl.Interface) *refModel {
	m := &refModel{itf: itf, rules: make(map[string]aidl.Rule)}
	for _, r := range aidl.Rules(itf) {
		m.rules[r.Method] = r
	}
	return m
}

// observe applies one decorated call to the model, mirroring the old
// Recorder.applyDrops + append flow exactly: flat scan, parcel re-parse,
// drop-self suppression.
func (r *refModel) observe(t *testing.T, method string, data *binder.Parcel) {
	t.Helper()
	m := r.itf.Method(method)
	if m == nil {
		t.Fatalf("no method %s", method)
	}
	rule, decorated := r.rules[method]
	if !decorated {
		return
	}
	suppress := false
	if len(rule.DropMethods) > 0 {
		targets := make(map[string]bool, len(rule.DropMethods))
		for _, name := range rule.DropMethods {
			if name == "this" {
				targets[m.Name] = true
			} else {
				targets[name] = true
			}
		}
		sigVals := make([]map[string]string, len(rule.Signatures))
		bad := false
		for i, sig := range rule.Signatures {
			vals := make(map[string]string, len(sig))
			for _, arg := range sig {
				v, err := aidl.ArgString(m, data, arg)
				if err != nil {
					bad = true
					break
				}
				vals[arg] = v
			}
			if bad {
				break
			}
			sigVals[i] = vals
		}
		if !bad {
			droppedOther := false
			kept := r.entries[:0]
			for _, e := range r.entries {
				if !targets[e.method] {
					kept = append(kept, e)
					continue
				}
				em := r.itf.Method(e.method)
				ep, err := binder.UnmarshalParcel(e.data)
				if err != nil {
					kept = append(kept, e)
					continue
				}
				drop := false
				if len(rule.Signatures) == 0 {
					drop = true
				} else {
					for i, sig := range rule.Signatures {
						match := true
						for _, arg := range sig {
							ev, err := aidl.ArgString(em, ep, arg)
							if err != nil || ev != sigVals[i][arg] {
								match = false
								break
							}
						}
						if match {
							drop = true
							break
						}
					}
				}
				if drop {
					if e.method != m.Name {
						droppedOther = true
					}
					continue
				}
				kept = append(kept, e)
			}
			r.entries = kept
			suppress = rule.DropsSelf() && droppedOther
		}
	}
	if !suppress {
		r.entries = append(r.entries, refEntry{method: method, data: data.Marshal()})
	}
}

// TestPruneMatchesReferenceModel drives a fixed-seed randomized workload
// of notification and alarm traffic through the real recorder and the
// reference model, comparing the surviving log byte-for-byte after every
// call.
func TestPruneMatchesReferenceModel(t *testing.T) {
	f := newFixture(t)
	refNotif := newRefModel(f.notifItf)
	refAlarm := newRefModel(f.alarmItf)

	rng := rand.New(rand.NewSource(1504))
	const calls = 600
	for i := 0; i < calls; i++ {
		// Small value spaces force frequent @if matches.
		id := rng.Intn(6)
		op := aidl.Object(fmt.Sprintf("pi:%d", rng.Intn(4)))
		switch rng.Intn(5) {
		case 0:
			payload := aidl.Object(fmt.Sprintf("n:%d", i))
			f.call(t, f.notif, "enqueueNotification", id, payload)
			m := f.notifItf.Method("enqueueNotification")
			p, err := aidl.MarshalCallArgs(m, id, payload)
			if err != nil {
				t.Fatal(err)
			}
			refNotif.observe(t, "enqueueNotification", p)
		case 1:
			f.call(t, f.notif, "cancelNotification", id)
			m := f.notifItf.Method("cancelNotification")
			p, err := aidl.MarshalCallArgs(m, id)
			if err != nil {
				t.Fatal(err)
			}
			refNotif.observe(t, "cancelNotification", p)
		case 2:
			at := int64(1000 + i)
			f.call(t, f.alarm, "set", 0, at, op)
			m := f.alarmItf.Method("set")
			p, err := aidl.MarshalCallArgs(m, 0, at, op)
			if err != nil {
				t.Fatal(err)
			}
			refAlarm.observe(t, "set", p)
		case 3:
			f.call(t, f.alarm, "remove", op)
			m := f.alarmItf.Method("remove")
			p, err := aidl.MarshalCallArgs(m, op)
			if err != nil {
				t.Fatal(err)
			}
			refAlarm.observe(t, "remove", p)
		case 4:
			// Undecorated traffic must never perturb the log.
			f.call(t, f.notif, "getActiveCount")
		}

		if i%37 == 0 || i == calls-1 {
			compareToReference(t, f, refNotif, refAlarm, i)
		}
	}
}

// compareToReference asserts the recorder's surviving log equals the two
// reference models' combined state: same methods, same request parcel
// bytes, same order.
func compareToReference(t *testing.T, f *fixture, refNotif, refAlarm *refModel, step int) {
	t.Helper()
	got := f.rec.Log().AppEntries("com.example.app")
	var gotNotif, gotAlarm []refEntry
	for _, e := range got {
		re := refEntry{method: e.Method, data: e.Data}
		switch e.Interface {
		case "INotificationManager":
			gotNotif = append(gotNotif, re)
		case "IAlarmManager":
			gotAlarm = append(gotAlarm, re)
		default:
			t.Fatalf("step %d: unexpected interface %s", step, e.Interface)
		}
	}
	for _, cmp := range []struct {
		name string
		got  []refEntry
		want []refEntry
	}{
		{"notification", gotNotif, refNotif.entries},
		{"alarm", gotAlarm, refAlarm.entries},
	} {
		if len(cmp.got) != len(cmp.want) {
			t.Fatalf("step %d: %s log has %d entries, reference %d", step, cmp.name, len(cmp.got), len(cmp.want))
		}
		for i := range cmp.got {
			if cmp.got[i].method != cmp.want[i].method {
				t.Fatalf("step %d: %s entry %d method %s, reference %s",
					step, cmp.name, i, cmp.got[i].method, cmp.want[i].method)
			}
			if !bytes.Equal(cmp.got[i].data, cmp.want[i].data) {
				t.Fatalf("step %d: %s entry %d (%s) parcel bytes diverge from reference",
					step, cmp.name, i, cmp.got[i].method)
			}
		}
	}
}

// TestLazyArgCacheMatchesAppendTimeCache proves entries loaded without a
// cache (wire round trip, as after persistence) prune identically to
// entries cached at append time.
func TestLazyArgCacheMatchesAppendTimeCache(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.alarm, "set", 0, int64(1000), aidl.Object("pi:sync"))
	f.call(t, f.alarm, "set", 0, int64(1500), aidl.Object("pi:other"))

	// Round trip through the wire format, dropping append-time caches.
	blob := f.rec.Log().MarshalApp("com.example.app")
	entries, err := UnmarshalEntries(blob)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewLog()
	for _, e := range entries {
		fresh.Append(e)
	}
	rec2 := NewRecorder(fresh, Config{
		Now:       f.clock.Now,
		PackageOf: func(pid int) (string, bool) { return "com.example.app", pid == 100 },
	})
	rec2.RegisterInterface("alarm", f.alarmItf)

	// Re-issue the remove through a second driver wired to rec2.
	// Simpler: prune directly through the recorder API surface by
	// simulating the same call the fixture would make.
	removed := fresh.PruneMatching("com.example.app", "IAlarmManager", []string{"set"}, func(e *Entry) bool {
		m := f.alarmItf.Method(e.Method)
		_, op := m.Param("operation")
		return e.argValues(m)[op] == "s:pi:sync" // canonical EntryString form
	})
	if removed != 1 {
		t.Fatalf("lazy-cache prune removed %d entries, want 1", removed)
	}
	left := fresh.AppEntries("com.example.app")
	if len(left) != 1 {
		t.Fatalf("%d entries left, want 1", len(left))
	}
	p, err := left[0].Parcel()
	if err != nil {
		t.Fatal(err)
	}
	if op, err := p.StringAt(2); err != nil || op != "pi:other" {
		t.Errorf("survivor operation = %q, %v; want pi:other", op, err)
	}
}
