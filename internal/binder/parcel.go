package binder

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Parcel is the unit of data exchanged in a Binder transaction. It mirrors
// Android's Parcel: a flat, typed, append-only buffer whose entries are
// read by position, so reading never changes it. Parcels serialize to a
// self-describing binary form so they can be persisted in the record log
// and shipped across devices inside a checkpoint image.
type Parcel struct {
	entries []entry
}

// Kind is the type tag of one parcel entry.
type Kind uint8

const (
	KindInt32 Kind = iota + 1
	KindInt64
	KindFloat64
	KindBool
	KindString
	KindBytes
	KindHandle // a Binder object reference (per-process handle id)
	KindFD     // a file descriptor number
)

func (k Kind) String() string {
	switch k {
	case KindInt32:
		return "int32"
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindHandle:
		return "handle"
	case KindFD:
		return "fd"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

type entry struct {
	kind Kind
	i64  int64
	f64  float64
	str  string
	b    []byte
}

// NewParcel returns an empty parcel ready for writing.
func NewParcel() *Parcel { return &Parcel{} }

// Len reports the number of entries written to the parcel; nil has none.
func (p *Parcel) Len() int {
	if p == nil {
		return 0
	}
	return len(p.entries)
}

// KindAt reports the kind of the i-th entry, or 0 when the parcel has no
// such entry.
func (p *Parcel) KindAt(i int) Kind {
	if i < 0 || i >= len(p.entries) {
		return 0
	}
	return p.entries[i].kind
}

// Clone returns a deep copy of the parcel.
func (p *Parcel) Clone() *Parcel {
	c := &Parcel{entries: make([]entry, len(p.entries))}
	copy(c.entries, p.entries)
	for i := range c.entries {
		if c.entries[i].b != nil {
			b := make([]byte, len(c.entries[i].b))
			copy(b, c.entries[i].b)
			c.entries[i].b = b
		}
	}
	return c
}

func (p *Parcel) WriteInt32(v int32) {
	p.entries = append(p.entries, entry{kind: KindInt32, i64: int64(v)})
}
func (p *Parcel) WriteInt64(v int64) { p.entries = append(p.entries, entry{kind: KindInt64, i64: v}) }
func (p *Parcel) WriteFloat64(v float64) {
	p.entries = append(p.entries, entry{kind: KindFloat64, f64: v})
}
func (p *Parcel) WriteBool(v bool) {
	var i int64
	if v {
		i = 1
	}
	p.entries = append(p.entries, entry{kind: KindBool, i64: i})
}
func (p *Parcel) WriteString(v string) {
	p.entries = append(p.entries, entry{kind: KindString, str: v})
}
func (p *Parcel) WriteBytes(v []byte) {
	b := make([]byte, len(v))
	copy(b, v)
	p.entries = append(p.entries, entry{kind: KindBytes, b: b})
}

// WriteHandle appends a Binder object reference. The handle id is only
// meaningful within the sending process; the driver translates it in flight.
func (p *Parcel) WriteHandle(h Handle) {
	p.entries = append(p.entries, entry{kind: KindHandle, i64: int64(h)})
}

// WriteFD appends a file descriptor number. Like handles, fds are
// process-local; CRIA records them so restore can reserve the same numbers.
func (p *Parcel) WriteFD(fd int) { p.entries = append(p.entries, entry{kind: KindFD, i64: int64(fd)}) }

// at returns the i-th entry when it has kind k.
func (p *Parcel) at(i int, k Kind) (entry, error) {
	if i < 0 || i >= p.Len() {
		return entry{}, fmt.Errorf("binder: parcel has no entry %d (len %d)", i, p.Len())
	}
	e := p.entries[i]
	if e.kind != k {
		return entry{}, fmt.Errorf("binder: parcel entry %d is %v, want %v", i, e.kind, k)
	}
	return e, nil
}

// Int32At, Int64At, BoolAt, StringAt, HandleAt and FDAt return the i-th
// entry, or an error when there is none or it is of another kind.
func (p *Parcel) Int32At(i int) (int32, error) {
	e, err := p.at(i, KindInt32)
	return int32(e.i64), err
}

func (p *Parcel) Int64At(i int) (int64, error) {
	e, err := p.at(i, KindInt64)
	return e.i64, err
}

func (p *Parcel) BoolAt(i int) (bool, error) {
	e, err := p.at(i, KindBool)
	return e.i64 != 0, err
}

func (p *Parcel) StringAt(i int) (string, error) {
	e, err := p.at(i, KindString)
	return e.str, err
}

func (p *Parcel) HandleAt(i int) (Handle, error) {
	e, err := p.at(i, KindHandle)
	return Handle(e.i64), err
}

func (p *Parcel) FDAt(i int) (int, error) {
	e, err := p.at(i, KindFD)
	return int(e.i64), err
}

// Size returns the wire size of the parcel in bytes. The migration pipeline
// uses it to account for record-log transfer volume.
func (p *Parcel) Size() int {
	n := 4 // entry count
	for _, e := range p.entries {
		n++ // kind tag
		switch e.kind {
		case KindInt32:
			n += 4
		case KindInt64, KindFloat64, KindHandle, KindFD:
			n += 8
		case KindBool:
			n++
		case KindString:
			n += 4 + len(e.str)
		case KindBytes:
			n += 4 + len(e.b)
		}
	}
	return n
}

// Marshal encodes the parcel to its wire form.
func (p *Parcel) Marshal() []byte {
	buf := make([]byte, 0, p.Size())
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.entries)))
	for _, e := range p.entries {
		buf = append(buf, byte(e.kind))
		switch e.kind {
		case KindInt32:
			buf = binary.BigEndian.AppendUint32(buf, uint32(e.i64))
		case KindInt64, KindHandle, KindFD:
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.i64))
		case KindFloat64:
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.f64))
		case KindBool:
			b := byte(0)
			if e.i64 != 0 {
				b = 1
			}
			buf = append(buf, b)
		case KindString:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.str)))
			buf = append(buf, e.str...)
		case KindBytes:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.b)))
			buf = append(buf, e.b...)
		}
	}
	return buf
}

// UnmarshalParcel decodes a parcel from its wire form.
func UnmarshalParcel(data []byte) (*Parcel, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("binder: parcel truncated: %d bytes", len(data))
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	// Every entry takes at least two bytes (a kind tag and a bool), so a
	// count the remaining bytes cannot hold is refused before it sizes
	// the entry slice.
	if uint64(n) > uint64(len(data))/2 {
		return nil, fmt.Errorf("binder: parcel claims %d entries in %d bytes", n, len(data))
	}
	p := &Parcel{entries: make([]entry, 0, n)}
	for i := uint32(0); i < n; i++ {
		if len(data) < 1 {
			return nil, fmt.Errorf("binder: parcel truncated at entry %d", i)
		}
		k := Kind(data[0])
		data = data[1:]
		var e entry
		e.kind = k
		switch k {
		case KindInt32:
			if len(data) < 4 {
				return nil, fmt.Errorf("binder: parcel truncated int32 at entry %d", i)
			}
			e.i64 = int64(int32(binary.BigEndian.Uint32(data)))
			data = data[4:]
		case KindInt64, KindHandle, KindFD:
			if len(data) < 8 {
				return nil, fmt.Errorf("binder: parcel truncated int64 at entry %d", i)
			}
			e.i64 = int64(binary.BigEndian.Uint64(data))
			data = data[8:]
		case KindFloat64:
			if len(data) < 8 {
				return nil, fmt.Errorf("binder: parcel truncated float64 at entry %d", i)
			}
			e.f64 = math.Float64frombits(binary.BigEndian.Uint64(data))
			data = data[8:]
		case KindBool:
			if len(data) < 1 {
				return nil, fmt.Errorf("binder: parcel truncated bool at entry %d", i)
			}
			// Marshal writes only 0 or 1; refusing other bytes keeps
			// every accepted parcel's wire form canonical.
			if data[0] > 1 {
				return nil, fmt.Errorf("binder: parcel bool at entry %d is %d, not 0 or 1", i, data[0])
			}
			e.i64 = int64(data[0])
			data = data[1:]
		case KindString:
			s, rest, err := readLenPrefixed(data, i)
			if err != nil {
				return nil, err
			}
			e.str = string(s)
			data = rest
		case KindBytes:
			b, rest, err := readLenPrefixed(data, i)
			if err != nil {
				return nil, err
			}
			e.b = append([]byte(nil), b...)
			data = rest
		default:
			return nil, fmt.Errorf("binder: parcel has unknown entry kind %d at entry %d", k, i)
		}
		p.entries = append(p.entries, e)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("binder: %d trailing bytes after parcel", len(data))
	}
	return p, nil
}

func readLenPrefixed(data []byte, i uint32) (payload, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("binder: parcel truncated length at entry %d", i)
	}
	l := binary.BigEndian.Uint32(data)
	data = data[4:]
	if uint32(len(data)) < l {
		return nil, nil, fmt.Errorf("binder: parcel truncated payload at entry %d: want %d, have %d", i, l, len(data))
	}
	return data[:l], data[l:], nil
}

// Handles returns the positions and values of all handle entries, used by
// the driver to translate object references in flight and by CRIA to find
// Binder dependencies buried in buffered transactions.
func (p *Parcel) Handles() []Handle {
	var hs []Handle
	for _, e := range p.entries {
		if e.kind == KindHandle {
			hs = append(hs, Handle(e.i64))
		}
	}
	return hs
}

// hasHandle reports whether the parcel embeds a Binder handle, the test
// transact makes on every call without collecting them as Handles does.
func (p *Parcel) hasHandle() bool {
	for _, e := range p.entries {
		if e.kind == KindHandle {
			return true
		}
	}
	return false
}

// EntryString returns the canonical string form of the i-th entry.
// Selective Record compares these strings when evaluating @if signatures.
func (p *Parcel) EntryString(i int) (string, error) {
	if i < 0 || i >= len(p.entries) {
		return "", fmt.Errorf("binder: parcel has no entry %d (len %d)", i, len(p.entries))
	}
	e := p.entries[i]
	switch e.kind {
	case KindString:
		return "s:" + e.str, nil
	case KindBytes:
		return fmt.Sprintf("b:%x", e.b), nil
	case KindFloat64:
		return fmt.Sprintf("f:%g", e.f64), nil
	case KindBool:
		if e.i64 != 0 {
			return "t", nil
		}
		return "f", nil
	case KindHandle:
		return "h:" + strconv.FormatInt(e.i64, 10), nil
	case KindFD:
		return "fd:" + strconv.FormatInt(e.i64, 10), nil
	default:
		return "i:" + strconv.FormatInt(e.i64, 10), nil
	}
}

// String renders a compact human-readable description, used by fluxtrace.
func (p *Parcel) String() string {
	s := "["
	for i, e := range p.entries {
		if i > 0 {
			s += " "
		}
		switch e.kind {
		case KindString:
			s += fmt.Sprintf("%q", e.str)
		case KindBytes:
			s += fmt.Sprintf("bytes(%d)", len(e.b))
		case KindFloat64:
			s += fmt.Sprintf("%g", e.f64)
		case KindBool:
			s += fmt.Sprintf("%t", e.i64 != 0)
		case KindHandle:
			s += fmt.Sprintf("h#%d", e.i64)
		case KindFD:
			s += fmt.Sprintf("fd:%d", e.i64)
		default:
			s += fmt.Sprintf("%d", e.i64)
		}
	}
	return s + "]"
}
