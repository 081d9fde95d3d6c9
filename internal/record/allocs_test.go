package record

import (
	"fmt"
	"testing"

	"flux/internal/aidl"
	"flux/internal/binder"
)

// TestDecoratedCallAllocs pins how many objects one decorated call
// through the Recorder allocates over a populated log: IAlarmManager.set
// with a PendingIntent already recorded, so its `@drop this; @if
// operation` rule prunes the old entry before the new one is appended.
// The three are what the log keeps of the new entry: its struct, the
// one buffer holding its marshalled request and reply, and its cached
// @if keys. The @if match compares typed keys and renders nothing.
func TestDecoratedCallAllocs(t *testing.T) {
	const pinned = 3
	f := newFixture(t)
	for i := 0; i < 64; i++ {
		f.call(t, f.alarm, "set", 0, int64(1000+i), aidl.Object(fmt.Sprintf("pi:%d", i)))
	}
	set := f.alarmItf.Method("set")
	data, err := aidl.MarshalCallArgs(set, 0, int64(5000), aidl.Object("pi:7"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := f.app.Node(f.alarm.Handle)
	if err != nil {
		t.Fatal(err)
	}
	call := &binder.Call{Code: set.Code, Data: data, Reply: binder.NewParcel(), CallingPID: 100, Handle: f.alarm.Handle}
	before := f.rec.Log().DroppedTotal()
	allocs := testing.AllocsPerRun(100, func() {
		f.rec.ObserveTransaction(100, node, call)
	})
	if f.rec.Log().DroppedTotal() == before {
		t.Fatal("the measured call pruned nothing; the fixture no longer exercises @if")
	}
	if n := len(f.rec.Log().AppEntries("com.example.app")); n != 64 {
		t.Fatalf("log holds %d entries after replacing calls, want 64", n)
	}
	if allocs != pinned {
		t.Fatalf("one decorated call allocated %.0f objects, pinned at %d; re-pin only for a deliberate change", allocs, pinned)
	}
}

// TestAnchorWireAllocs bounds what cutting a checkpoint anchor
// allocates: the split wire records, the hashing state and the anchor
// itself, none of it per entry, so a 1,000-entry blob costs what a
// 10-entry one does.
func TestAnchorWireAllocs(t *testing.T) {
	const bound = 7
	measure := func(n int) float64 {
		l := NewLog()
		for i := 0; i < n; i++ {
			l.Append(sampleEntry("com.a", "set", i))
		}
		blob := l.MarshalApp("com.a")
		return testing.AllocsPerRun(20, func() {
			if _, err := AnchorWire(blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(10), measure(1000)
	t.Logf("AnchorWire allocations: %.0f at 10 entries, %.0f at 1,000", small, large)
	if large > bound || large != small {
		t.Fatalf("AnchorWire allocated %.0f objects at 1,000 entries and %.0f at 10; want at most %d at both", large, small, bound)
	}
}

// TestUnmarshalEntriesAllocs bounds what decoding a log costs: each
// entry its struct and the one buffer its request and reply share, plus
// a constant for the entry slice and the names interned across the
// blob, which holds one app's log.
func TestUnmarshalEntriesAllocs(t *testing.T) {
	const entries, perEntry, fixed = 1000, 2, 5
	l := NewLog()
	for i := 0; i < entries; i++ {
		e := sampleEntry("com.a", "set", i)
		e.Reply = []byte{0, 0, 0, 0}
		l.Append(e)
	}
	blob := l.MarshalApp("com.a")
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := UnmarshalEntries(blob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > perEntry*entries+fixed {
		t.Fatalf("UnmarshalEntries allocated %.0f objects for %d entries, want at most %d", allocs, entries, perEntry*entries+fixed)
	}
}
