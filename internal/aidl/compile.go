package aidl

import (
	"fmt"
	"slices"

	"flux/internal/binder"
)

// Rule is the compiled record/replay rule for one decorated method. The
// Selective Record engine evaluates rules online as the app calls services;
// Adaptive Replay consults ReplayProxy when replaying the pruned log.
type Rule struct {
	Interface   string
	Method      string
	Code        uint32
	DropMethods []string
	Signatures  [][]string
	ReplayProxy string
}

// DropsSelf reports whether the rule's drop list contains "this", meaning a
// signature match also suppresses recording of the triggering call.
func (r Rule) DropsSelf() bool {
	for _, m := range r.DropMethods {
		if m == "this" {
			return true
		}
	}
	return false
}

// Rules compiles the decorated methods of itf into record rules, in
// declaration order. It is the name-based reference form of the tables
// Parse compiles (Method.Drops, Method.ComparedParams): fluxvet's
// reference model and the equivalence tests read it; Selective Record
// and Adaptive Replay read the tables.
func Rules(itf *Interface) []Rule {
	var out []Rule
	for _, m := range itf.Methods {
		if m.Record == nil {
			continue
		}
		out = append(out, Rule{
			Interface:   itf.Name,
			Method:      m.Name,
			Code:        m.Code,
			DropMethods: append([]string(nil), m.Record.DropMethods...),
			Signatures:  append([][]string(nil), m.Record.Signatures...),
			ReplayProxy: m.Record.ReplayProxy,
		})
	}
	return out
}

// DropTable is the compiled form of one decorated method's @drop and
// @if/@elif clauses, with every name resolved to a method or parameter
// index. Parse builds it once per method whose @drop list is non-empty;
// every Recorder on every device shares it, so it must not be modified.
type DropTable struct {
	// Targets are the methods whose recorded calls this call can drop:
	// the @drop list with "this" resolved to the method itself and
	// duplicates removed, in list order.
	Targets []*Method
	// TargetNames are the Targets' names, in the same order: the record
	// log's index keys a prune visits.
	TargetNames []string
	// Self reports whether the @drop list names "this".
	Self bool
	// Sigs[i][j] is the parameter index, in the decorated method, of
	// argument j of @if/@elif signature i. Empty means drop
	// unconditionally.
	Sigs [][]int
	// TargetSigs[t][i][j] is the index of the same argument among the
	// parameters of Targets[t].
	TargetSigs [][][]int
}

// Drops returns the method's compiled @drop table, or nil when the method
// has no @drop clause (or the AST was built by hand rather than parsed).
func (m *Method) Drops() *DropTable { return m.drops }

// ComparedParams returns the indexes, ascending, of the method's
// parameters that some @if/@elif signature of its interface compares when
// a call drops recorded calls of this method. Selective Record caches
// exactly these arguments per log entry. The slice must not be modified.
func (m *Method) ComparedParams() []int { return m.compared }

// compileTables builds every method's DropTable and compared-parameter
// set. check has already resolved every drop target and @if argument, so
// no lookup here can fail.
func compileTables(itf *Interface) {
	for _, m := range itf.Methods {
		if m.Record == nil || len(m.Record.DropMethods) == 0 {
			continue
		}
		d := &DropTable{Sigs: paramIndexes(m, m.Record.Signatures)}
		for _, name := range m.Record.DropMethods {
			t := m
			if name == "this" {
				d.Self = true
			} else {
				t = itf.Method(name)
			}
			if !slices.Contains(d.Targets, t) {
				d.Targets = append(d.Targets, t)
				d.TargetNames = append(d.TargetNames, t.Name)
			}
		}
		d.TargetSigs = make([][][]int, len(d.Targets))
		for i, t := range d.Targets {
			d.TargetSigs[i] = paramIndexes(t, m.Record.Signatures)
			for _, sig := range d.TargetSigs[i] {
				for _, idx := range sig {
					if !slices.Contains(t.compared, idx) {
						t.compared = append(t.compared, idx)
					}
				}
			}
		}
		m.drops = d
	}
	for _, m := range itf.Methods {
		slices.Sort(m.compared)
	}
}

// paramIndexes maps each @if/@elif argument name to its parameter index
// in m.
func paramIndexes(m *Method, sigs [][]string) [][]int {
	out := make([][]int, len(sigs))
	for i, sig := range sigs {
		out[i] = make([]int, len(sig))
		for j, arg := range sig {
			_, out[i][j] = m.Param(arg)
		}
	}
	return out
}

// Object is an opaque parcelable value — a Notification, PendingIntent,
// Intent, and so on. The simulation represents parcelables by their
// canonical serialized form; equality of Objects is exactly the identity
// the paper's @if signatures compare (e.g. the PendingIntent `operation`
// argument of IAlarmManager.set and .remove).
type Object string

// MarshalCallArgs validates args against the method signature and builds
// the request parcel. Each parameter occupies exactly one parcel entry, so
// parameter index == parcel entry index, which ArgString relies on.
func MarshalCallArgs(m *Method, args ...any) (*binder.Parcel, error) {
	if len(args) != len(m.Params) {
		return nil, fmt.Errorf("aidl: %s takes %d args, got %d", m.Name, len(m.Params), len(args))
	}
	p := binder.NewParcel()
	for i, param := range m.Params {
		if err := marshalArg(p, param, args[i]); err != nil {
			return nil, fmt.Errorf("aidl: %s arg %d (%s): %w", m.Name, i, param.Name, err)
		}
	}
	return p, nil
}

func marshalArg(p *binder.Parcel, param Param, arg any) error {
	switch param.Type {
	case TypeInt:
		v, ok := toInt64(arg)
		if !ok {
			return fmt.Errorf("want int, got %T", arg)
		}
		p.WriteInt32(int32(v))
	case TypeLong:
		v, ok := toInt64(arg)
		if !ok {
			return fmt.Errorf("want long, got %T", arg)
		}
		p.WriteInt64(v)
	case TypeFloat:
		switch v := arg.(type) {
		case float64:
			p.WriteFloat64(v)
		case float32:
			p.WriteFloat64(float64(v))
		default:
			return fmt.Errorf("want float, got %T", arg)
		}
	case TypeBool:
		v, ok := arg.(bool)
		if !ok {
			return fmt.Errorf("want boolean, got %T", arg)
		}
		p.WriteBool(v)
	case TypeString:
		v, ok := arg.(string)
		if !ok {
			return fmt.Errorf("want String, got %T", arg)
		}
		p.WriteString(v)
	case TypeBytes:
		v, ok := arg.([]byte)
		if !ok {
			return fmt.Errorf("want byte[], got %T", arg)
		}
		p.WriteBytes(v)
	case TypeParcelable:
		switch v := arg.(type) {
		case Object:
			p.WriteString(string(v))
		case string:
			p.WriteString(v)
		default:
			return fmt.Errorf("want aidl.Object, got %T", arg)
		}
	case TypeBinder:
		v, ok := arg.(binder.Handle)
		if !ok {
			return fmt.Errorf("want binder.Handle, got %T", arg)
		}
		p.WriteHandle(v)
	case TypeFD:
		v, ok := arg.(int)
		if !ok {
			return fmt.Errorf("want fd int, got %T", arg)
		}
		p.WriteFD(v)
	default:
		return fmt.Errorf("unmarshalable parameter type %v", param.Type)
	}
	return nil
}

// Args is a request parcel CheckArgs has matched against its method's
// signature. Its getters take a parameter index and cannot fail: each
// returns the zero value for an index or type the signature does not
// declare, which a checked parcel never holds.
type Args struct{ p *binder.Parcel }

// Int, Long, Bool and String return parameter i of that AIDL type;
// String also reads parcelables.
func (a Args) Int(i int) int32     { v, _ := a.p.Int32At(i); return v }
func (a Args) Long(i int) int64    { v, _ := a.p.Int64At(i); return v }
func (a Args) Bool(i int) bool     { v, _ := a.p.BoolAt(i); return v }
func (a Args) String(i int) string { v, _ := a.p.StringAt(i); return v }

// CheckArgs checks that a request parcel (nil is empty) holds exactly
// what MarshalCallArgs writes for m: one entry per parameter, each of the
// kind its parameter type marshals to. The Dispatcher runs it before
// every handler, so a malformed request is an error, never a panic.
func CheckArgs(m *Method, p *binder.Parcel) (Args, error) {
	if p.Len() != len(m.Params) {
		return Args{}, fmt.Errorf("aidl: %s takes %d args, parcel holds %d entries", m.Name, len(m.Params), p.Len())
	}
	for i, param := range m.Params {
		if got, want := p.KindAt(i), parcelKind(param.Type); got != want {
			return Args{}, fmt.Errorf("aidl: %s arg %d (%s): parcel holds %v, want %v", m.Name, i, param.Name, got, want)
		}
	}
	return Args{p}, nil
}

// parcelKind is the parcel entry kind marshalArg writes for t.
func parcelKind(t Type) binder.Kind {
	switch t {
	case TypeInt:
		return binder.KindInt32
	case TypeLong:
		return binder.KindInt64
	case TypeFloat:
		return binder.KindFloat64
	case TypeBool:
		return binder.KindBool
	case TypeString, TypeParcelable:
		return binder.KindString
	case TypeBytes:
		return binder.KindBytes
	case TypeBinder:
		return binder.KindHandle
	case TypeFD:
		return binder.KindFD
	}
	return 0
}

func toInt64(arg any) (int64, bool) {
	switch v := arg.(type) {
	case int:
		return int64(v), true
	case int32:
		return int64(v), true
	case int64:
		return v, true
	case uint32:
		return int64(v), true
	}
	return 0, false
}

// ArgString extracts the canonical string form of the named argument from a
// request parcel, for @if signature comparison. Handles and fds are
// rendered with their numeric value; the recorder normalizes them before
// comparison if needed.
func ArgString(m *Method, data *binder.Parcel, argName string) (string, error) {
	_, idx := m.Param(argName)
	if idx < 0 {
		return "", fmt.Errorf("aidl: %s has no parameter %s", m.Name, argName)
	}
	return data.EntryString(idx)
}

// Client is the app-side stub of a compiled interface bound to a Binder
// handle, the analogue of an AIDL-generated Proxy class.
type Client struct {
	Itf    *Interface
	Proc   *binder.Proc
	Handle binder.Handle
}

// NewClient resolves name through the ServiceManager and binds a client.
func NewClient(itf *Interface, proc *binder.Proc, name string) (*Client, error) {
	h, err := binder.GetService(proc, name)
	if err != nil {
		return nil, err
	}
	return &Client{Itf: itf, Proc: proc, Handle: h}, nil
}

// Call invokes method with args, returning the reply parcel. Methods
// declared oneway transact asynchronously and return a nil reply.
func (c *Client) Call(method string, args ...any) (*binder.Parcel, error) {
	m := c.Itf.Method(method)
	if m == nil {
		return nil, fmt.Errorf("aidl: interface %s has no method %s", c.Itf.Name, method)
	}
	data, err := MarshalCallArgs(m, args...)
	if err != nil {
		return nil, err
	}
	if m.OneWay {
		return nil, c.Proc.TransactOneWay(c.Handle, m.Code, data)
	}
	return c.Proc.Transact(c.Handle, m.Code, data)
}

// Dispatcher is the service-side stub, the analogue of an AIDL-generated
// Stub class: it resolves transaction codes to methods, checks the call
// against the method and invokes the registered handler.
type Dispatcher struct {
	Itf      *Interface
	handlers []Handler // by transaction code - 1
}

// Handler implements one service method from the checked request args,
// writing its results to call.Reply.
type Handler func(call *binder.Call, args Args) error

// NewDispatcher creates an empty dispatcher for itf.
func NewDispatcher(itf *Interface) *Dispatcher {
	return &Dispatcher{Itf: itf, handlers: make([]Handler, len(itf.Methods))}
}

// Handle registers the implementation of a method; unknown names panic at
// service construction time rather than failing at call time.
func (d *Dispatcher) Handle(method string, h Handler) *Dispatcher {
	m := d.Itf.Method(method)
	if m == nil {
		panic(fmt.Sprintf("aidl: interface %s has no method %s", d.Itf.Name, method))
	}
	d.handlers[m.Code-1] = h
	return d
}

// Transact implements binder.Transactor.
func (d *Dispatcher) Transact(call *binder.Call) error {
	m := d.Itf.MethodByCode(call.Code)
	if m == nil {
		return fmt.Errorf("aidl: %s: unknown transaction code %d", d.Itf.Name, call.Code)
	}
	h := d.handlers[m.Code-1]
	if h == nil {
		return fmt.Errorf("aidl: %s.%s not implemented", d.Itf.Name, m.Name)
	}
	// A oneway call carries no reply parcel for a two-way handler to fill.
	if call.Reply == nil && !m.OneWay {
		return fmt.Errorf("aidl: oneway call to two-way method %s.%s", d.Itf.Name, m.Name)
	}
	args, err := CheckArgs(m, call.Data)
	if err != nil {
		return err
	}
	return h(call, args)
}
