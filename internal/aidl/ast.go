package aidl

import "fmt"

// Pos is a 1-based line:column position in the AIDL source an element was
// parsed from. Programmatically built ASTs carry the zero Pos, which
// IsValid reports as false; semantic equality (EqualSemantics) ignores
// positions entirely. fluxvet uses positions to point findings at the
// exact decoration token.
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether the position came from parsed source.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Interface is a parsed AIDL interface definition.
type Interface struct {
	Name    string
	Methods []*Method
}

// Method is one RPC method of an interface. Its transaction code is its
// 1-based position in the interface, matching AIDL's FIRST_CALL_TRANSACTION
// ordering.
type Method struct {
	Name    string
	Returns Type
	Params  []Param
	Code    uint32
	Record  *RecordSpec // nil when the method is undecorated
	// OneWay marks asynchronous methods (AIDL's oneway keyword): no reply
	// parcel is produced and the caller does not block on completion.
	OneWay bool
	// Pos is the source position of the method name token.
	Pos Pos

	// drops and compared are the method's Selective Record tables,
	// compiled once by Parse (see compileTables) and read-only after
	// that. Hand-built ASTs leave them nil.
	drops    *DropTable
	compared []int
}

// Param is a method parameter. Parcelable parameters carry the `in`
// direction marker as in real AIDL.
type Param struct {
	Name string
	Type Type
	In   bool
	// Pos is the source position of the parameter name token.
	Pos Pos
}

// Type is the small AIDL type system the framework services need.
type Type uint8

const (
	TypeVoid Type = iota
	TypeInt
	TypeLong
	TypeFloat
	TypeBool
	TypeString
	TypeBytes      // byte[]
	TypeParcelable // any object type: Notification, PendingIntent, Intent, ...
	TypeBinder     // IBinder: a handle
	TypeFD         // ParcelFileDescriptor / socket
)

func (t Type) String() string {
	switch t {
	case TypeVoid:
		return "void"
	case TypeInt:
		return "int"
	case TypeLong:
		return "long"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "boolean"
	case TypeString:
		return "String"
	case TypeBytes:
		return "byte[]"
	case TypeParcelable:
		return "parcelable"
	case TypeBinder:
		return "IBinder"
	case TypeFD:
		return "ParcelFileDescriptor"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// typeOf maps a type identifier to the AIDL type system. Unknown identifiers
// are parcelables: AIDL treats any imported class as a parcelable object.
func typeOf(ident string) Type {
	switch ident {
	case "void":
		return TypeVoid
	case "int":
		return TypeInt
	case "long":
		return TypeLong
	case "float", "double":
		return TypeFloat
	case "boolean":
		return TypeBool
	case "String":
		return TypeString
	case "byte[]":
		return TypeBytes
	case "IBinder":
		return TypeBinder
	case "ParcelFileDescriptor":
		return TypeFD
	default:
		return TypeParcelable
	}
}

// RecordSpec captures a method's Flux decoration (Table 1).
type RecordSpec struct {
	// DropMethods lists methods whose previously recorded calls this call
	// invalidates. The keyword "this" refers to the decorated method itself
	// and additionally means the triggering call is not recorded when a
	// signature matches.
	DropMethods []string
	// Signatures holds the @if/@elif argument-name tuples. A previous call
	// is dropped if, for any one signature, every named argument matches
	// between the previous call and the triggering call. Empty means drop
	// unconditionally.
	Signatures [][]string
	// ReplayProxy names the proxy method Adaptive Replay substitutes for
	// this call, e.g. "flux.recordreplay.Proxies.alarmMgrSet".
	ReplayProxy string

	// Source positions, parallel to the semantic fields above. AtPos is
	// the '@' of the @record keyword; DropPos[i] locates DropMethods[i];
	// SigPos[i][j] locates Signatures[i][j]; ProxyPos locates the
	// @replayproxy path. All are zero for programmatically built specs.
	AtPos    Pos
	DropPos  []Pos
	SigPos   [][]Pos
	ProxyPos Pos
}

// DropMethodPos returns the source position of DropMethods[i], or the
// @record position when per-target positions are unavailable.
func (r *RecordSpec) DropMethodPos(i int) Pos {
	if i < len(r.DropPos) {
		return r.DropPos[i]
	}
	return r.AtPos
}

// SignatureArgPos returns the source position of Signatures[i][j], falling
// back to the @record position.
func (r *RecordSpec) SignatureArgPos(i, j int) Pos {
	if i < len(r.SigPos) && j < len(r.SigPos[i]) {
		return r.SigPos[i][j]
	}
	return r.AtPos
}

// Param returns the parameter with the given name and its index, or nil.
func (m *Method) Param(name string) (*Param, int) {
	for i := range m.Params {
		if m.Params[i].Name == name {
			return &m.Params[i], i
		}
	}
	return nil, -1
}

// Method returns the method with the given name, or nil.
func (itf *Interface) Method(name string) *Method {
	for _, m := range itf.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// MethodByCode returns the method with the given transaction code, or nil.
// Codes are 1-based positions, so this is an index, not a scan.
func (itf *Interface) MethodByCode(code uint32) *Method {
	if code == 0 || uint64(code) > uint64(len(itf.Methods)) {
		return nil
	}
	if m := itf.Methods[code-1]; m.Code == code {
		return m
	}
	return nil
}

// RecordedMethods returns the names of methods carrying @record, in
// declaration order.
func (itf *Interface) RecordedMethods() []string {
	var out []string
	for _, m := range itf.Methods {
		if m.Record != nil {
			out = append(out, m.Name)
		}
	}
	return out
}
