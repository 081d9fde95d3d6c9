package aidl

import (
	"reflect"
	"strings"
	"testing"

	"flux/internal/binder"
)

// notificationSrc is Figure 7 of the paper, verbatim semantics.
const notificationSrc = `
interface INotificationManager {
    @record
    void enqueueNotification(int id, in Notification notification);

    @record {
        @drop this, enqueueNotification;
        @if id;
    }
    void cancelNotification(int id);
}
`

// alarmSrc is Figure 9 of the paper, including the line continuation.
const alarmSrc = `
interface IAlarmManager {
    @record {
        @drop this;
        @if operation;
        @replayproxy \
            flux.recordreplay.Proxies.alarmMgrSet;
    }
    void set(int type, long triggerAtTime, in PendingIntent operation);

    @record {
        @drop this;
        @if operation;
    }
    void remove(in PendingIntent operation);
}
`

func TestParseNotificationManager(t *testing.T) {
	itf, err := Parse(notificationSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if itf.Name != "INotificationManager" {
		t.Errorf("Name = %q", itf.Name)
	}
	if len(itf.Methods) != 2 {
		t.Fatalf("got %d methods", len(itf.Methods))
	}
	enq := itf.Method("enqueueNotification")
	if enq == nil || enq.Code != 1 {
		t.Fatalf("enqueueNotification = %+v", enq)
	}
	if enq.Record == nil || len(enq.Record.DropMethods) != 0 {
		t.Errorf("enqueue record spec = %+v, want bare @record", enq.Record)
	}
	if len(enq.Params) != 2 || enq.Params[0].Type != TypeInt || enq.Params[1].Type != TypeParcelable {
		t.Errorf("enqueue params = %+v", enq.Params)
	}
	if !enq.Params[1].In {
		t.Error("parcelable param lost `in` direction")
	}

	cancel := itf.Method("cancelNotification")
	if cancel == nil || cancel.Code != 2 {
		t.Fatalf("cancelNotification = %+v", cancel)
	}
	wantDrop := []string{"this", "enqueueNotification"}
	if !reflect.DeepEqual(cancel.Record.DropMethods, wantDrop) {
		t.Errorf("drop = %v, want %v", cancel.Record.DropMethods, wantDrop)
	}
	wantSig := [][]string{{"id"}}
	if !reflect.DeepEqual(cancel.Record.Signatures, wantSig) {
		t.Errorf("signatures = %v, want %v", cancel.Record.Signatures, wantSig)
	}
}

func TestParseAlarmManagerReplayProxy(t *testing.T) {
	itf, err := Parse(alarmSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	set := itf.Method("set")
	if set == nil {
		t.Fatal("no set method")
	}
	if got := set.Record.ReplayProxy; got != "flux.recordreplay.Proxies.alarmMgrSet" {
		t.Errorf("ReplayProxy = %q", got)
	}
	rm := itf.Method("remove")
	if rm.Record.ReplayProxy != "" {
		t.Errorf("remove has proxy %q", rm.Record.ReplayProxy)
	}
	if set.Params[1].Type != TypeLong {
		t.Errorf("triggerAtTime type = %v", set.Params[1].Type)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing interface kw", `foo INotif {}`},
		{"unterminated", `interface I { void a();`},
		{"dup method", `interface I { void a(); void a(); }`},
		{"dup param", `interface I { void a(int x, int x); }`},
		{"drop unknown method", `interface I { @record { @drop nosuch; } void a(); }`},
		{"if unknown arg", `interface I { @record { @drop this; @if nope; } void a(int x); }`},
		{"elif before if", `interface I { @record { @drop this; @elif x; } void a(int x); }`},
		{"unknown decoration", `interface I { @record { @frob x; } void a(int x); }`},
		{"decoration not record", `interface I { @drop this; void a(); }`},
		{"if arg missing on drop target", `interface I { void b(int y); @record { @drop b; @if x; } void a(int x); }`},
		{"duplicate replayproxy", `interface I { @record { @replayproxy a.b; @replayproxy c.d; } void a(); }`},
		{"stray char", `interface I { void a(); } $`},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.src); err == nil {
			t.Errorf("%s: Parse accepted invalid source", tc.name)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
// NotificationManager subset
interface I {
    void a(); // trailing comment
}
`
	itf, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse with comments: %v", err)
	}
	if len(itf.Methods) != 1 {
		t.Errorf("methods = %d", len(itf.Methods))
	}
}

func TestTransactionCodesSequential(t *testing.T) {
	itf := MustParse(`interface I { void a(); void b(); void c(); }`)
	for i, m := range itf.Methods {
		if m.Code != uint32(i+1) {
			t.Errorf("method %s code = %d, want %d", m.Name, m.Code, i+1)
		}
	}
	if itf.MethodByCode(2).Name != "b" {
		t.Error("MethodByCode(2) != b")
	}
	if itf.MethodByCode(99) != nil {
		t.Error("MethodByCode(99) != nil")
	}
	if itf.MethodByCode(0) != nil {
		t.Error("MethodByCode(0) != nil")
	}
	// A hand-built AST whose codes are not positions resolves nothing
	// rather than the wrong method.
	odd := &Interface{Name: "I", Methods: []*Method{{Name: "x", Code: 7}}}
	if odd.MethodByCode(1) != nil {
		t.Error("MethodByCode(1) resolved a method declared with code 7")
	}
}

func TestRulesCompilation(t *testing.T) {
	itf := MustParse(alarmSrc)
	rules := Rules(itf)
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	set := rules[0]
	if set.Method != "set" || set.Interface != "IAlarmManager" || !set.DropsSelf() {
		t.Errorf("set rule = %+v", set)
	}
	if set.ReplayProxy == "" {
		t.Error("set rule lost replay proxy")
	}
	// Undecorated interfaces compile to no rules.
	plain := MustParse(`interface I { void a(); }`)
	if got := Rules(plain); len(got) != 0 {
		t.Errorf("plain rules = %v", got)
	}
}

// TestCompiledTables checks Parse's tables on a spec that exercises
// every resolution: "this" named twice next to an explicit self
// reference, a target whose parameters sit in another order, @elif, a
// method no @if compares, and an @if with no @drop.
func TestCompiledTables(t *testing.T) {
	itf := MustParse(`interface I {
    @record {
        @drop this, clear, set, this;
        @if id;
        @elif tag, id;
    }
    void set(int id, String tag, in Parcelable payload);

    @record
    void clear(String tag, int id);

    @record { @if id; }
    void touch(int id);

    void plain();
}`)
	set, clear, touch, plain := itf.Method("set"), itf.Method("clear"), itf.Method("touch"), itf.Method("plain")
	d := set.Drops()
	if d == nil {
		t.Fatal("set has no drop table")
	}
	if len(d.Targets) != 2 || d.Targets[0] != set || d.Targets[1] != clear {
		t.Fatalf("targets = %v, want [set clear]", d.TargetNames)
	}
	if !reflect.DeepEqual(d.TargetNames, []string{"set", "clear"}) || !d.Self {
		t.Errorf("target names %v, self %v", d.TargetNames, d.Self)
	}
	if want := [][]int{{0}, {1, 0}}; !reflect.DeepEqual(d.Sigs, want) {
		t.Errorf("Sigs = %v, want %v", d.Sigs, want)
	}
	if want := [][][]int{{{0}, {1, 0}}, {{1}, {0, 1}}}; !reflect.DeepEqual(d.TargetSigs, want) {
		t.Errorf("TargetSigs = %v, want %v", d.TargetSigs, want)
	}
	for _, tc := range []struct {
		m    *Method
		want []int
	}{
		{set, []int{0, 1}},
		{clear, []int{0, 1}},
		{touch, nil},
		{plain, nil},
	} {
		if got := tc.m.ComparedParams(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s compared params = %v, want %v", tc.m.Name, got, tc.want)
		}
	}
	for _, m := range []*Method{clear, touch, plain} {
		if m.Drops() != nil {
			t.Errorf("%s has a drop table but no @drop", m.Name)
		}
	}
}

func TestRecordedMethods(t *testing.T) {
	itf := MustParse(notificationSrc)
	got := itf.RecordedMethods()
	want := []string{"enqueueNotification", "cancelNotification"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RecordedMethods = %v, want %v", got, want)
	}
}

func TestMarshalCallArgsTypes(t *testing.T) {
	itf := MustParse(`interface I {
        void m(int a, long b, float c, boolean d, String e, in Blob f, IBinder g, ParcelFileDescriptor h);
    }`)
	m := itf.Method("m")
	p, err := MarshalCallArgs(m, 1, int64(2), 3.5, true, "hi", Object("blob"), binder.Handle(4), 5)
	if err != nil {
		t.Fatalf("MarshalCallArgs: %v", err)
	}
	if p.Len() != 8 {
		t.Errorf("parcel len = %d", p.Len())
	}
	if got, err := p.Int32At(0); err != nil || got != 1 {
		t.Errorf("a = %d, %v", got, err)
	}
	if got, err := p.Int64At(1); err != nil || got != 2 {
		t.Errorf("b = %d, %v", got, err)
	}
	if got, err := p.EntryString(2); err != nil || got != "f:3.5" {
		t.Errorf("c = %q, %v", got, err)
	}
	if got, err := p.BoolAt(3); err != nil || !got {
		t.Errorf("d = %t, %v", got, err)
	}
	if got, err := p.StringAt(4); err != nil || got != "hi" {
		t.Errorf("e = %q, %v", got, err)
	}
	if got, err := p.StringAt(5); err != nil || got != "blob" {
		t.Errorf("f = %q, %v", got, err)
	}
	if got, err := p.HandleAt(6); err != nil || got != 4 {
		t.Errorf("g = %d, %v", got, err)
	}
	if got, err := p.FDAt(7); err != nil || got != 5 {
		t.Errorf("h = %d, %v", got, err)
	}
}

func TestMarshalCallArgsErrors(t *testing.T) {
	itf := MustParse(`interface I { void m(int a, String b); }`)
	m := itf.Method("m")
	if _, err := MarshalCallArgs(m, 1); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := MarshalCallArgs(m, "no", "b"); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := MarshalCallArgs(m, 1, 2); err == nil {
		t.Error("string type mismatch accepted")
	}
}

// TestCheckArgs: every parcel MarshalCallArgs builds passes, for every
// parameter type; a parcel missing, adding or mistyping an argument is
// an error that names the argument, and checking allocates nothing.
func TestCheckArgs(t *testing.T) {
	itf := MustParse(`interface I {
        void m(int a, long b, float c, boolean d, String e, in Blob f, IBinder g, ParcelFileDescriptor h);
        void none();
    }`)
	m := itf.Method("m")
	p, err := MarshalCallArgs(m, 1, int64(2), 3.5, true, "hi", Object("blob"), binder.Handle(4), 5)
	if err != nil {
		t.Fatal(err)
	}
	args, err := CheckArgs(m, p)
	if err != nil {
		t.Fatalf("CheckArgs on a marshalled parcel: %v", err)
	}
	if args.Int(0) != 1 || args.Long(1) != 2 || !args.Bool(3) || args.String(4) != "hi" || args.String(5) != "blob" {
		t.Errorf("Args = %d %d %t %q %q, want 1 2 true hi blob", args.Int(0), args.Long(1), args.Bool(3), args.String(4), args.String(5))
	}
	// An index or type the signature does not declare reads as zero.
	if args.Int(1) != 0 || args.String(8) != "" || args.Long(-1) != 0 {
		t.Error("Args getter outside the signature returned a non-zero value")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = CheckArgs(m, p) }); allocs != 0 {
		t.Errorf("CheckArgs allocates %v times per call, want 0", allocs)
	}
	if _, err := CheckArgs(itf.Method("none"), binder.NewParcel()); err != nil {
		t.Fatalf("CheckArgs on an empty call: %v", err)
	}
	if _, err := CheckArgs(itf.Method("none"), nil); err != nil {
		t.Fatalf("CheckArgs on a nil request to a method without parameters: %v", err)
	}
	if _, err := CheckArgs(m, nil); err == nil || !strings.Contains(err.Error(), "takes 8 args, parcel holds 0") {
		t.Errorf("nil request: err = %v", err)
	}

	short := binder.NewParcel()
	short.WriteInt32(1)
	if _, err := CheckArgs(m, short); err == nil || !strings.Contains(err.Error(), "takes 8 args, parcel holds 1") {
		t.Errorf("missing arguments: err = %v", err)
	}
	if _, err := CheckArgs(m, binder.NewParcel()); err == nil {
		t.Error("empty parcel accepted")
	}
	extra := binder.NewParcel()
	extra.WriteInt32(1)
	if _, err := CheckArgs(itf.Method("none"), extra); err == nil {
		t.Error("extra argument accepted")
	}

	wrong := binder.NewParcel()
	wrong.WriteInt32(1)
	wrong.WriteInt32(2) // b is a long
	for i := 2; i < 8; i++ {
		wrong.WriteInt32(0)
	}
	if _, err := CheckArgs(m, wrong); err == nil || !strings.Contains(err.Error(), "arg 1 (b): parcel holds int32, want int64") {
		t.Errorf("mistyped argument: err = %v", err)
	}
}

func TestArgString(t *testing.T) {
	itf := MustParse(alarmSrc)
	m := itf.Method("set")
	p, err := MarshalCallArgs(m, 0, int64(12345), Object("intent:netflix/resume"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ArgString(m, p, "operation")
	if err != nil {
		t.Fatal(err)
	}
	if got != "s:intent:netflix/resume" {
		t.Errorf("ArgString(operation) = %q", got)
	}
	if _, err := ArgString(m, p, "nosuch"); err == nil {
		t.Error("ArgString on unknown arg succeeded")
	}
}

func TestClientDispatcherEndToEnd(t *testing.T) {
	itf := MustParse(`interface IEcho { String echo(String msg); int add(int a, int b); oneway void ping(); }`)
	d := binder.NewDriver()
	sys, err := d.OpenProc(1, 1000, "system_server")
	if err != nil {
		t.Fatal(err)
	}
	app, err := d.OpenProc(100, 10000, "app")
	if err != nil {
		t.Fatal(err)
	}
	handled := 0
	disp := NewDispatcher(itf).
		Handle("echo", func(call *binder.Call, args Args) error {
			handled++
			call.Reply.WriteString(args.String(0) + args.String(0))
			return nil
		}).
		Handle("add", func(call *binder.Call, args Args) error {
			handled++
			call.Reply.WriteInt32(args.Int(0) + args.Int(1))
			return nil
		}).
		Handle("ping", func(call *binder.Call, args Args) error {
			handled++
			return nil
		})
	if _, err := binder.AddService(sys, "echo", itf.Name, disp); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(itf, app, "echo")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.Call("echo", "ab")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reply.StringAt(0); err != nil || got != "abab" {
		t.Errorf("echo = %q, %v", got, err)
	}
	reply, err = c.Call("add", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reply.Int32At(0); err != nil || got != 5 {
		t.Errorf("add = %d, %v", got, err)
	}
	if _, err := c.Call("nosuch"); err == nil {
		t.Error("unknown method call succeeded")
	}
	if _, err := c.Call("ping"); err != nil {
		t.Errorf("oneway ping: %v", err)
	}
	// A request that does not match the signature is refused before any
	// handler runs: short, mistyped, trailing and nil.
	short := binder.NewParcel()
	short.WriteInt32(2)
	mistyped := binder.NewParcel()
	mistyped.WriteInt32(2)
	mistyped.WriteString("3")
	trailing := binder.NewParcel()
	trailing.WriteString("ab")
	trailing.WriteString("cd")
	add, echo := itf.Method("add").Code, itf.Method("echo").Code
	before := handled
	for _, bad := range []struct {
		code uint32
		data *binder.Parcel
	}{{add, short}, {add, mistyped}, {echo, trailing}, {echo, nil}} {
		if _, err := app.Transact(c.Handle, bad.code, bad.data); err == nil {
			t.Errorf("code %d with %v dispatched", bad.code, bad.data)
		}
	}
	// A oneway call has no reply parcel, so it may only reach a oneway
	// method.
	ok := binder.NewParcel()
	ok.WriteInt32(2)
	ok.WriteInt32(3)
	if err := app.TransactOneWay(c.Handle, add, ok); err == nil {
		t.Error("oneway call to a two-way method dispatched")
	}
	if handled != before {
		t.Errorf("%d handlers ran on malformed requests", handled-before)
	}
}

func TestDispatcherUnimplementedMethod(t *testing.T) {
	itf := MustParse(`interface I { void a(); }`)
	disp := NewDispatcher(itf)
	call := &binder.Call{Code: 1, Data: binder.NewParcel(), Reply: binder.NewParcel()}
	if err := disp.Transact(call); err == nil {
		t.Error("unimplemented method dispatched")
	}
	call.Code = 42
	if err := disp.Transact(call); err == nil {
		t.Error("unknown code dispatched")
	}
}

func TestDispatcherHandleUnknownPanics(t *testing.T) {
	itf := MustParse(`interface I { void a(); }`)
	defer func() {
		if recover() == nil {
			t.Error("Handle on unknown method did not panic")
		}
	}()
	NewDispatcher(itf).Handle("nosuch", nil)
}

func TestDecorationLOC(t *testing.T) {
	if got := DecorationLOC(notificationSrc); got != 5 {
		t.Errorf("notification decoration LOC = %d, want 5", got)
	}
	// alarmSrc: set block has 6 lines (@record{, @drop, @if, @replayproxy,
	// continuation, }), remove block 4.
	if got := DecorationLOC(alarmSrc); got != 10 {
		t.Errorf("alarm decoration LOC = %d, want 10", got)
	}
	if got := DecorationLOC("interface I { void a(); }"); got != 0 {
		t.Errorf("plain decoration LOC = %d", got)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeVoid: "void", TypeInt: "int", TypeLong: "long", TypeFloat: "float",
		TypeBool: "boolean", TypeString: "String", TypeBytes: "byte[]",
		TypeBinder: "IBinder", TypeFD: "ParcelFileDescriptor",
	} {
		if got := ty.String(); got != want {
			t.Errorf("Type.String(%d) = %q, want %q", ty, got, want)
		}
	}
	if typeOf("byte[]") != TypeBytes {
		t.Error("byte[] did not map to TypeBytes")
	}
	if typeOf("Notification") != TypeParcelable {
		t.Error("unknown class did not map to TypeParcelable")
	}
}

// TestParseErrorContext asserts every parse error carries enough context
// to locate the fault inside a large service definition: the interface
// name, the method (by name once known, by ordinal before the name is
// read), and a line:column position.
func TestParseErrorContext(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			"dup method names both",
			"interface IAudio {\n\tvoid mute();\n\tvoid mute();\n}",
			[]string{"IAudio", "mute", "3:"},
		},
		{
			"dup param names method",
			"interface IAudio {\n\tvoid setVolume(int level, int level);\n}",
			[]string{"IAudio", "setVolume", "level"},
		},
		{
			"drop target names method",
			"interface IWifi {\n\t@record { @drop nosuch; }\n\tvoid connect();\n}",
			[]string{"IWifi", "connect", "nosuch"},
		},
		{
			"if arg names method",
			"interface IWifi {\n\t@record { @drop this; @if nope; }\n\tvoid connect(int netId);\n}",
			[]string{"IWifi", "connect", "nope"},
		},
		{
			"elif before if names method",
			"interface IWifi {\n\t@record { @drop this; @elif netId; }\n\tvoid connect(int netId);\n}",
			[]string{"IWifi", "connect", "@elif"},
		},
		{
			"unterminated names interface",
			"interface IPower {\n\tvoid wake();",
			[]string{"IPower"},
		},
		{
			"bad decoration before name uses ordinal",
			"interface IPower {\n\t@frob x\n\tvoid wake();\n}",
			[]string{"IPower", "method 1"},
		},
		{
			"oneway non-void names method",
			"interface IPower {\n\toneway int wake();\n}",
			[]string{"IPower", "wake"},
		},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: Parse accepted invalid source", tc.name)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "aidl: ") {
			t.Errorf("%s: error %q lacks the aidl: prefix", tc.name, msg)
		}
		for _, frag := range tc.want {
			if !strings.Contains(msg, frag) {
				t.Errorf("%s: error %q is missing context %q", tc.name, msg, frag)
			}
		}
	}
}
