package binder

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalParcel throws arbitrary bytes at the parcel decoder, the
// reader every record-log entry's request and reply bytes reach (replay,
// Entry.Parcel, lazy @if argument caching, fluxvet's log lint). It must
// never panic, and any input it accepts must re-marshal to exactly
// itself: the wire form of an accepted parcel is canonical.
func FuzzUnmarshalParcel(f *testing.F) {
	p := NewParcel()
	p.WriteInt32(-42)
	p.WriteInt64(1 << 40)
	p.WriteFloat64(3.25)
	p.WriteBool(true)
	p.WriteBool(false)
	p.WriteString("notification")
	p.WriteBytes([]byte{0, 1, 2, 255})
	p.WriteHandle(7)
	p.WriteFD(33)
	wire := p.Marshal()
	for n := 0; n <= len(wire); n++ {
		f.Add(wire[:n])
	}
	f.Add(append(append([]byte(nil), wire...), 0))
	f.Add(NewParcel().Marshal())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalParcel(data)
		if err != nil {
			return
		}
		if got := p.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("accepted parcel re-marshals differently:\n got %x\nwant %x", got, data)
		}
	})
}
