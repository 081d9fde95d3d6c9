package record

import (
	"bytes"
	"testing"
	"time"

	"flux/internal/aidl"
)

// FuzzEntryWire throws arbitrary bytes at the two readers of the
// MarshalApp wire format and requires that they agree: SplitEntries
// (which frames entries for the seglog anchor) and UnmarshalEntries
// (which decodes them for replay) either both reject the input, or both
// accept it with the same entry count and boundaries, and EntryWire of
// each decoded entry re-encodes exactly its split slice. Nothing may
// panic.
func FuzzEntryWire(f *testing.F) {
	fx := newFixture(f)
	fx.call(f, fx.notif, "enqueueNotification", 1, aidl.Object("n:hello"))
	fx.call(f, fx.alarm, "set", 0, int64(1000), aidl.Object("pi:sync"))
	fx.call(f, fx.alarm, "remove", aidl.Object("pi:none"))
	// Direct appends cover the reply encodings a recorded call cannot
	// produce here: a oneway call (nil reply) and an empty reply.
	at := time.Unix(0, 1429614023098000000).UTC()
	fx.rec.Log().Append(&Entry{App: "com.example.app", Service: "alarm", Interface: "IAlarmManager", Method: "set", Code: 1, At: at})
	fx.rec.Log().Append(&Entry{App: "com.example.app", Service: "alarm", Interface: "IAlarmManager", Method: "remove", Code: 2, Handle: -1, At: at, Data: []byte{0, 0, 0, 0}, Reply: []byte{}})
	blob := fx.rec.Log().MarshalApp("com.example.app")
	for n := 0; n <= len(blob); n++ {
		f.Add(blob[:n])
	}
	f.Add(append(append([]byte(nil), blob...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		wires, serr := SplitEntries(data)
		entries, uerr := UnmarshalEntries(data)
		if (serr == nil) != (uerr == nil) {
			t.Fatalf("SplitEntries err = %v, UnmarshalEntries err = %v", serr, uerr)
		}
		if serr != nil {
			return
		}
		if len(wires) != len(entries) {
			t.Fatalf("SplitEntries found %d entries, UnmarshalEntries %d", len(wires), len(entries))
		}
		rest := data[4:]
		for i, w := range wires {
			if !bytes.HasPrefix(rest, w) || (len(w) > 0 && &rest[0] != &w[0]) {
				t.Fatalf("entry %d: split slice is not the next %d bytes of the blob", i, len(w))
			}
			rest = rest[len(w):]
			if got := EntryWire(entries[i]); !bytes.Equal(got, w) {
				t.Fatalf("entry %d: EntryWire of the decoded entry differs from its split slice:\n got %x\nwant %x", i, got, w)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes after the last split entry", len(rest))
		}
	})
}
