package binder

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestParcelRoundTripTypes(t *testing.T) {
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

	if got := p.MustInt32(); got != -42 {
		t.Errorf("int32 = %d, want -42", got)
	}
	if got := p.MustInt64(); got != 1<<40 {
		t.Errorf("int64 = %d, want %d", got, int64(1)<<40)
	}
	if got := p.MustFloat64(); got != 3.25 {
		t.Errorf("float64 = %g, want 3.25", got)
	}
	if got := p.MustBool(); !got {
		t.Error("bool#1 = false, want true")
	}
	if got := p.MustBool(); got {
		t.Error("bool#2 = true, want false")
	}
	if got := p.MustString(); got != "notification" {
		t.Errorf("string = %q", got)
	}
	if got := p.MustBytes(); !bytes.Equal(got, []byte{0, 1, 2, 255}) {
		t.Errorf("bytes = %v", got)
	}
	if got := p.MustHandle(); got != 7 {
		t.Errorf("handle = %d, want 7", got)
	}
	if got := p.MustFD(); got != 33 {
		t.Errorf("fd = %d, want 33", got)
	}
}

func TestParcelReadPastEnd(t *testing.T) {
	p := NewParcel()
	p.WriteInt32(1)
	if _, err := p.ReadInt32(); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := p.ReadInt32(); err == nil {
		t.Fatal("read past end succeeded, want error")
	}
}

func TestParcelTypeMismatch(t *testing.T) {
	p := NewParcel()
	p.WriteString("x")
	if _, err := p.ReadInt64(); err == nil {
		t.Fatal("type-mismatched read succeeded, want error")
	}
}

func TestParcelResetRereads(t *testing.T) {
	p := NewParcel()
	p.WriteInt32(9)
	if got := p.MustInt32(); got != 9 {
		t.Fatalf("first read = %d", got)
	}
	p.Reset()
	if got := p.MustInt32(); got != 9 {
		t.Fatalf("read after Reset = %d", got)
	}
}

func TestParcelMarshalRoundTrip(t *testing.T) {
	p := NewParcel()
	p.WriteInt32(-1)
	p.WriteInt64(math.MinInt64)
	p.WriteFloat64(-0.5)
	p.WriteBool(true)
	p.WriteString("héllo µ")
	p.WriteBytes([]byte{9, 8, 7})
	p.WriteHandle(1234)
	p.WriteFD(5)

	wire := p.Marshal()
	if len(wire) != p.Size() {
		t.Errorf("Marshal produced %d bytes, Size() = %d", len(wire), p.Size())
	}
	q, err := UnmarshalParcel(wire)
	if err != nil {
		t.Fatalf("UnmarshalParcel: %v", err)
	}
	if !reflect.DeepEqual(p.entries, q.entries) {
		t.Errorf("round trip mismatch:\n  in:  %v\n  out: %v", p, q)
	}
}

func TestParcelUnmarshalTruncated(t *testing.T) {
	p := NewParcel()
	p.WriteString("abcdef")
	p.WriteInt64(99)
	wire := p.Marshal()
	for cut := 0; cut < len(wire); cut++ {
		if _, err := UnmarshalParcel(wire[:cut]); err == nil {
			t.Errorf("UnmarshalParcel accepted truncation at %d bytes", cut)
		}
	}
}

func TestParcelUnmarshalTrailingGarbage(t *testing.T) {
	p := NewParcel()
	p.WriteBool(true)
	wire := append(p.Marshal(), 0xFF)
	if _, err := UnmarshalParcel(wire); err == nil {
		t.Fatal("UnmarshalParcel accepted trailing bytes")
	}
}

// TestParcelUnmarshalHugeCount: a 4-byte header that claims 1<<20
// entries is refused before it sizes the entry slice (64 bytes an
// entry, so 64 MiB if it were trusted).
func TestParcelUnmarshalHugeCount(t *testing.T) {
	wire := binary.BigEndian.AppendUint32(nil, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalParcel(wire)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("UnmarshalParcel accepted a count its bytes cannot hold")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Errorf("refusing the header allocated %d bytes, want < 4 KB", got)
	}
}

func TestParcelUnmarshalNonCanonicalBool(t *testing.T) {
	p := NewParcel()
	p.WriteBool(true)
	wire := p.Marshal()
	wire[len(wire)-1] = 2
	if _, err := UnmarshalParcel(wire); err == nil {
		t.Fatal("UnmarshalParcel accepted a bool byte of 2")
	}
}

func TestParcelCloneIsDeep(t *testing.T) {
	p := NewParcel()
	p.WriteBytes([]byte{1, 2, 3})
	c := p.Clone()
	orig := p.MustBytes()
	orig[0] = 99
	got := c.MustBytes()
	if got[0] != 1 {
		t.Errorf("clone shares byte storage: got %v", got)
	}
}

func TestParcelHandles(t *testing.T) {
	p := NewParcel()
	p.WriteInt32(1)
	p.WriteHandle(4)
	p.WriteString("x")
	p.WriteHandle(9)
	got := p.Handles()
	want := []Handle{4, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Handles() = %v, want %v", got, want)
	}
}

// quickParcel builds a parcel from fuzz inputs deterministically.
func quickParcel(ints []int64, strs []string, blobs [][]byte) *Parcel {
	p := NewParcel()
	for _, v := range ints {
		switch v % 3 {
		case 0:
			p.WriteInt64(v)
		case 1, -1:
			p.WriteInt32(int32(v))
		default:
			p.WriteBool(v%2 == 0)
		}
	}
	for _, s := range strs {
		p.WriteString(s)
	}
	for _, b := range blobs {
		p.WriteBytes(b)
	}
	return p
}

func TestParcelMarshalRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string, blobs [][]byte) bool {
		p := quickParcel(ints, strs, blobs)
		q, err := UnmarshalParcel(p.Marshal())
		if err != nil {
			return false
		}
		if len(q.entries) != len(p.entries) {
			return false
		}
		for i := range p.entries {
			a, b := p.entries[i], q.entries[i]
			if a.kind != b.kind || a.i64 != b.i64 || a.str != b.str || !bytes.Equal(a.b, b.b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParcelSizeMatchesMarshalProperty(t *testing.T) {
	f := func(ints []int64, strs []string, blobs [][]byte) bool {
		p := quickParcel(ints, strs, blobs)
		return len(p.Marshal()) == p.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParcelStringRendering(t *testing.T) {
	p := NewParcel()
	p.WriteInt32(3)
	p.WriteString("hi")
	p.WriteHandle(2)
	got := p.String()
	want := `[3 "hi" h#2]`
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}
