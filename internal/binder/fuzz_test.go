package binder

import (
	"bytes"
	"math"
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

// FuzzEntryKey checks the typed @if keys against their reference
// rendering: for two parcels decoded from the input, two entries have
// equal keys exactly when their EntryStrings are equal, for every pair
// of entries in either parcel. No entry has the zero key, and a missing
// entry has only that.
func FuzzEntryKey(f *testing.F) {
	pair := func(a, b func(p *Parcel)) {
		pa, pb := NewParcel(), NewParcel()
		a(pa)
		b(pb)
		f.Add(pa.Marshal(), pb.Marshal())
	}
	pair(func(p *Parcel) { p.WriteInt32(5) }, func(p *Parcel) { p.WriteInt64(5) })
	pair(func(p *Parcel) { p.WriteFloat64(math.NaN()) },
		func(p *Parcel) { p.WriteFloat64(math.Float64frombits(0xfff8000000000001)) })
	pair(func(p *Parcel) { p.WriteFloat64(0) }, func(p *Parcel) { p.WriteFloat64(math.Copysign(0, -1)) })
	pair(func(p *Parcel) { p.WriteString("") }, func(p *Parcel) { p.WriteBytes(nil) })
	pair(func(p *Parcel) { p.WriteString("abc") }, func(p *Parcel) { p.WriteBytes([]byte("abc")) })
	pair(func(p *Parcel) { p.WriteBool(false) }, func(p *Parcel) { p.WriteFloat64(0) })

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var keys []Key
		var strs []string
		for _, wire := range [][]byte{a, b} {
			p, err := UnmarshalParcel(wire)
			if err != nil {
				return
			}
			for i := 0; i < p.Len(); i++ {
				s, err := p.EntryString(i)
				if err != nil {
					t.Fatal(err)
				}
				k := p.EntryKey(i)
				if k == (Key{}) {
					t.Fatalf("entry %d (%s) has the zero key", i, s)
				}
				keys, strs = append(keys, k), append(strs, s)
			}
			if k := p.EntryKey(p.Len()); k != (Key{}) {
				t.Fatalf("missing entry %d has key %+v, want the zero key", p.Len(), k)
			}
		}
		for i := range keys {
			for j := range keys {
				if (keys[i] == keys[j]) != (strs[i] == strs[j]) {
					t.Fatalf("entries %q and %q: keys equal %t, EntryStrings equal %t",
						strs[i], strs[j], keys[i] == keys[j], strs[i] == strs[j])
				}
			}
		}
	})
}
