package binder

import (
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

	if got, err := p.Int32At(0); err != nil || got != -42 {
		t.Errorf("int32 = %d, %v; want -42", got, err)
	}
	if got, err := p.Int64At(1); err != nil || got != 1<<40 {
		t.Errorf("int64 = %d, %v; want %d", got, err, int64(1)<<40)
	}
	if got, err := p.EntryString(2); err != nil || got != "f:3.25" {
		t.Errorf("float64 = %q, %v; want f:3.25", got, err)
	}
	if got, err := p.BoolAt(3); err != nil || !got {
		t.Errorf("bool#1 = %t, %v; want true", got, err)
	}
	if got, err := p.BoolAt(4); err != nil || got {
		t.Errorf("bool#2 = %t, %v; want false", got, err)
	}
	if got, err := p.StringAt(5); err != nil || got != "notification" {
		t.Errorf("string = %q, %v", got, err)
	}
	if got, err := p.EntryString(6); err != nil || got != "b:000102ff" {
		t.Errorf("bytes = %q, %v", got, err)
	}
	if got, err := p.HandleAt(7); err != nil || got != 7 {
		t.Errorf("handle = %d, %v; want 7", got, err)
	}
	if got, err := p.FDAt(8); err != nil || got != 33 {
		t.Errorf("fd = %d, %v; want 33", got, err)
	}
	// Reading is positional: it never consumes an entry.
	if got, err := p.Int32At(0); err != nil || got != -42 {
		t.Errorf("int32 re-read = %d, %v; want -42", got, err)
	}
}

func TestParcelReadPastEnd(t *testing.T) {
	p := NewParcel()
	p.WriteInt32(1)
	if _, err := p.Int32At(0); err != nil {
		t.Fatalf("read of entry 0: %v", err)
	}
	for _, i := range []int{1, -1} {
		if _, err := p.Int32At(i); err == nil {
			t.Errorf("read of entry %d succeeded, want error", i)
		}
	}
	var nilParcel *Parcel
	if _, err := nilParcel.StringAt(0); err == nil {
		t.Error("read of a nil parcel succeeded, want error")
	}
}

func TestParcelTypeMismatch(t *testing.T) {
	p := NewParcel()
	p.WriteString("x")
	if _, err := p.Int64At(0); err == nil {
		t.Fatal("type-mismatched read succeeded, want error")
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
// entries is refused before it sizes the entry slice (32 bytes an
// entry, so 32 MiB if it were trusted).
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

// TestWriteBytesCopies: a byte-array entry holds its own copy, so the
// caller may reuse its slice, and Clone can share entries.
func TestWriteBytesCopies(t *testing.T) {
	b := []byte{1, 2, 3}
	p := NewParcel()
	p.WriteBytes(b)
	b[0] = 99
	if got, _ := p.EntryString(0); got != "b:010203" {
		t.Errorf("parcel shares the caller's byte storage: got %s", got)
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
			if a != b {
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
