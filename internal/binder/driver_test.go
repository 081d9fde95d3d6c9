package binder

import (
	"errors"
	"fmt"
	"testing"
)

// echoService replies with the string it was sent plus a suffix.
type echoService struct{ suffix string }

func (e *echoService) Transact(call *Call) error {
	s, err := call.Data.StringAt(0)
	if err != nil {
		return err
	}
	if call.Reply != nil {
		call.Reply.WriteString(s + e.suffix)
	}
	return nil
}

func mustOpen(t *testing.T, d *Driver, pid, uid int, name string) *Proc {
	t.Helper()
	p, err := d.OpenProc(pid, uid, name)
	if err != nil {
		t.Fatalf("OpenProc(%d): %v", pid, err)
	}
	return p
}

func TestOpenProcDuplicatePID(t *testing.T) {
	d := NewDriver()
	mustOpen(t, d, 100, 10000, "app")
	if _, err := d.OpenProc(100, 10001, "again"); err == nil {
		t.Fatal("duplicate OpenProc succeeded")
	}
}

func TestRegisterAndCallService(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "com.example.app")

	if _, err := AddService(sys, "echo", "IEcho", &echoService{suffix: "!"}); err != nil {
		t.Fatalf("AddService: %v", err)
	}
	h, err := GetService(app, "echo")
	if err != nil {
		t.Fatalf("GetService: %v", err)
	}
	data := NewParcel()
	data.WriteString("ping")
	reply, err := app.Transact(h, 1, data)
	if err != nil {
		t.Fatalf("Transact: %v", err)
	}
	if got, err := reply.StringAt(0); err != nil || got != "ping!" {
		t.Errorf("reply = %q, %v; want %q", got, err, "ping!")
	}
}

func TestGetServiceUnknownName(t *testing.T) {
	d := NewDriver()
	app := mustOpen(t, d, 100, 10000, "app")
	if _, err := GetService(app, "nope"); err == nil {
		t.Fatal("GetService on unknown name succeeded")
	}
}

func TestGetServiceReusesHandle(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	if _, err := AddService(sys, "echo", "IEcho", &echoService{}); err != nil {
		t.Fatal(err)
	}
	h1, err := GetService(app, "echo")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := GetService(app, "echo")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("repeated GetService returned different handles: %d vs %d", h1, h2)
	}
}

func TestHandleZeroIsServiceManager(t *testing.T) {
	d := NewDriver()
	app := mustOpen(t, d, 100, 10000, "app")
	node, err := app.Node(ContextManagerHandle)
	if err != nil {
		t.Fatal(err)
	}
	if node.Descriptor() != "android.os.IServiceManager" {
		t.Errorf("handle 0 descriptor = %q", node.Descriptor())
	}
}

func TestDeadObjectAfterOwnerExit(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	if _, err := AddService(sys, "echo", "IEcho", &echoService{}); err != nil {
		t.Fatal(err)
	}
	h, err := GetService(app, "echo")
	if err != nil {
		t.Fatal(err)
	}
	sys.Exit()
	data := NewParcel()
	data.WriteString("x")
	if _, err := app.Transact(h, 1, data); !errors.Is(err, ErrDeadObject) {
		t.Errorf("Transact after owner exit: err = %v, want ErrDeadObject", err)
	}
	if got := d.ServiceManager().Lookup("echo"); got != nil {
		t.Error("ServiceManager still lists service of dead process")
	}
}

func TestDeathNotification(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	if _, err := AddService(sys, "echo", "IEcho", &echoService{}); err != nil {
		t.Fatal(err)
	}
	h, err := GetService(app, "echo")
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	if err := app.LinkToDeath(h, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	sys.Exit()
	if fired != 1 {
		t.Errorf("death recipient fired %d times, want 1", fired)
	}
	sys.Exit() // idempotent
	if fired != 1 {
		t.Errorf("death recipient fired %d times after double exit", fired)
	}
}

func TestLinkToDeathOnAlreadyDeadNode(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	if _, err := AddService(sys, "echo", "IEcho", &echoService{}); err != nil {
		t.Fatal(err)
	}
	h, err := GetService(app, "echo")
	if err != nil {
		t.Fatal(err)
	}
	sys.Exit()
	fired := false
	if err := app.LinkToDeath(h, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("death recipient on dead node did not fire immediately")
	}
}

func TestTransactBadHandle(t *testing.T) {
	d := NewDriver()
	app := mustOpen(t, d, 100, 10000, "app")
	if _, err := app.Transact(42, 1, NewParcel()); !errors.Is(err, ErrBadHandle) {
		t.Errorf("err = %v, want ErrBadHandle", err)
	}
}

func TestExitedProcCannotTransact(t *testing.T) {
	d := NewDriver()
	app := mustOpen(t, d, 100, 10000, "app")
	app.Exit()
	if _, err := app.Transact(ContextManagerHandle, SMListServices, NewParcel()); !errors.Is(err, ErrProcDead) {
		t.Errorf("err = %v, want ErrProcDead", err)
	}
}

// handlePassingService remembers the node it was handed.
type handlePassingService struct {
	d        *Driver
	received Handle
	self     *Proc
}

func (s *handlePassingService) Transact(call *Call) error {
	h, err := call.Data.HandleAt(0)
	if err != nil {
		return err
	}
	s.received = h
	// Prove the translated handle is usable from the service's process.
	data := NewParcel()
	data.WriteString("nested")
	reply, err := s.self.Transact(h, 1, data)
	if err != nil {
		return err
	}
	msg, err := reply.StringAt(0)
	if err != nil {
		return err
	}
	call.Reply.WriteString(msg)
	return nil
}

func TestEmbeddedHandleTranslation(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")

	recv := &handlePassingService{d: d, self: sys}
	if _, err := AddService(sys, "receiver", "IReceiver", recv); err != nil {
		t.Fatal(err)
	}

	// App publishes a callback object and passes its handle to the service.
	cbNode, err := app.Publish("ICallback", &echoService{suffix: "-cb"})
	if err != nil {
		t.Fatal(err)
	}
	cbHandle, err := app.Ref(cbNode)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := GetService(app, "receiver")
	if err != nil {
		t.Fatal(err)
	}
	data := NewParcel()
	data.WriteHandle(cbHandle)
	reply, err := app.Transact(rh, 1, data)
	if err != nil {
		t.Fatalf("Transact: %v", err)
	}
	if got, err := reply.StringAt(0); err != nil || got != "nested-cb" {
		t.Errorf("nested call through translated handle = %q, %v; want %q", got, err, "nested-cb")
	}
	if recv.received == cbHandle && recv.received != 0 {
		// They could coincide numerically; assert the service can resolve it.
		t.Logf("handles coincide numerically (%d); translation still verified by nested call", cbHandle)
	}
}

func TestInjectRefPreservesHandleID(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	node, err := sys.Publish("ISvc", &echoService{suffix: "?"})
	if err != nil {
		t.Fatal(err)
	}
	const want = Handle(57)
	if err := app.InjectRef(want, node); err != nil {
		t.Fatalf("InjectRef: %v", err)
	}
	data := NewParcel()
	data.WriteString("q")
	reply, err := app.Transact(want, 1, data)
	if err != nil {
		t.Fatalf("Transact on injected handle: %v", err)
	}
	if got, err := reply.StringAt(0); err != nil || got != "q?" {
		t.Errorf("reply = %q, %v", got, err)
	}
	// New handles must allocate above the injected id.
	n2, err := sys.Publish("ISvc2", &echoService{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := app.Ref(n2)
	if err != nil {
		t.Fatal(err)
	}
	if h2 <= want {
		t.Errorf("post-injection Ref allocated handle %d, want > %d", h2, want)
	}
}

// TestRefReusesIndexedHandle covers every insert the node→handle index
// tracks: a Ref answers a repeat with the handle it allocated, a node
// injected at a chosen id keeps that id, handle 0 is the ServiceManager,
// and a handle re-injected over a dead node moves to the new node.
func TestRefReusesIndexedHandle(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	n1, _ := sys.Publish("A", &echoService{})
	n2, _ := sys.Publish("B", &echoService{})
	h1, err := app.Ref(n1)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := app.Ref(n1); again != h1 {
		t.Errorf("repeated Ref returned handle %d, want %d", again, h1)
	}
	const injected = Handle(40)
	if err := app.InjectRef(injected, n2); err != nil {
		t.Fatal(err)
	}
	if h, _ := app.Ref(n2); h != injected {
		t.Errorf("Ref of an injected node returned handle %d, want %d", h, injected)
	}
	if h, _ := app.Ref(d.ServiceManager().node); h != ContextManagerHandle {
		t.Errorf("Ref of the ServiceManager returned handle %d, want 0", h)
	}

	// A dead node's handle can be re-injected; the index follows it.
	other := mustOpen(t, d, 2, 10001, "other")
	dying, _ := other.Publish("C", &echoService{})
	const reused = Handle(50)
	if err := app.InjectRef(reused, dying); err != nil {
		t.Fatal(err)
	}
	other.Exit()
	fresh, _ := sys.Publish("D", &echoService{})
	if err := app.InjectRef(reused, fresh); err != nil {
		t.Fatalf("InjectRef over a dead node's handle: %v", err)
	}
	if h, _ := app.Ref(fresh); h != reused {
		t.Errorf("Ref of the re-injected node returned handle %d, want %d", h, reused)
	}
	if _, err := app.Ref(dying); !errors.Is(err, ErrDeadObject) {
		t.Errorf("Ref of a dead node: err = %v, want ErrDeadObject", err)
	}
	if h, _ := app.Ref(n1); h != h1 {
		t.Errorf("Ref of the first node moved from handle %d to %d", h1, h)
	}
}

func TestInjectRefOverLiveHandleFails(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	n1, _ := sys.Publish("A", &echoService{})
	n2, _ := sys.Publish("B", &echoService{})
	h, err := app.Ref(n1)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.InjectRef(h, n2); err == nil {
		t.Fatal("InjectRef over live handle succeeded")
	}
}

func TestHandlesSnapshotSortedAndComplete(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	for i := 0; i < 5; i++ {
		if _, err := AddService(sys, fmt.Sprintf("svc%d", i), "ISvc", &echoService{}); err != nil {
			t.Fatal(err)
		}
		if _, err := GetService(app, fmt.Sprintf("svc%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	hs := app.Handles()
	if len(hs) != 6 { // 5 services + handle 0
		t.Fatalf("handle table has %d entries, want 6", len(hs))
	}
	if hs[0].Handle != ContextManagerHandle {
		t.Errorf("first handle = %d, want 0", hs[0].Handle)
	}
	for i := 1; i < len(hs); i++ {
		if hs[i].Handle <= hs[i-1].Handle {
			t.Errorf("handles not sorted at %d: %v", i, hs)
		}
		if hs[i].OwnerPID != 1 {
			t.Errorf("handle %d owner pid = %d, want 1", hs[i].Handle, hs[i].OwnerPID)
		}
	}
}

func TestServiceManagerNameOf(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	node, err := AddService(sys, "notification", "INotificationManager", &echoService{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ServiceManager().NameOf(node.ID()); got != "notification" {
		t.Errorf("NameOf = %q", got)
	}
	other, _ := sys.Publish("IAnon", &echoService{})
	if got := d.ServiceManager().NameOf(other.ID()); got != "" {
		t.Errorf("NameOf(anon) = %q, want empty", got)
	}
	// A node registered under two names resolves to the smaller one,
	// whichever was registered first.
	twice, _ := sys.Publish("ITwice", &echoService{})
	for _, name := range []string{"zeta", "alpha"} {
		if err := d.ServiceManager().Register(name, twice); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.ServiceManager().NameOf(twice.ID()); got != "alpha" {
		t.Errorf("NameOf(two names) = %q, want alpha", got)
	}
}

func TestListServicesViaTransaction(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	for _, name := range []string{"alarm", "notification", "sensor"} {
		if _, err := AddService(sys, name, "I"+name, &echoService{}); err != nil {
			t.Fatal(err)
		}
	}
	reply, err := app.Transact(ContextManagerHandle, SMListServices, NewParcel())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < reply.Len(); i++ {
		s, err := reply.StringAt(i)
		if err != nil {
			t.Fatalf("ListServices entry %d: %v", i, err)
		}
		got = append(got, s)
	}
	want := []string{"alarm", "notification", "sensor"}
	if len(got) != len(want) {
		t.Fatalf("ListServices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ListServices[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

type countingInterposer struct {
	calls int
	last  string
}

func (c *countingInterposer) ObserveTransaction(pid int, node *Node, call *Call) {
	c.calls++
	c.last = node.Descriptor()
}

func TestInterposerObservesTransactions(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	if _, err := AddService(sys, "echo", "IEcho", &echoService{}); err != nil {
		t.Fatal(err)
	}
	ip := &countingInterposer{}
	d.SetInterposer(ip)
	h, err := GetService(app, "echo")
	if err != nil {
		t.Fatal(err)
	}
	data := NewParcel()
	data.WriteString("x")
	if _, err := app.Transact(h, 1, data); err != nil {
		t.Fatal(err)
	}
	// GetService itself is a transaction on the ServiceManager, so expect 2.
	if ip.calls != 2 {
		t.Errorf("interposer saw %d transactions, want 2", ip.calls)
	}
	if ip.last != "IEcho" {
		t.Errorf("interposer last descriptor = %q", ip.last)
	}
	// Installing another interposer replaces the first.
	next := &countingInterposer{}
	d.SetInterposer(next)
	if _, err := app.Transact(h, 1, data); err != nil {
		t.Fatal(err)
	}
	if ip.calls != 2 || next.calls != 1 {
		t.Errorf("after replacement: first saw %d transactions, second %d; want 2 and 1", ip.calls, next.calls)
	}
	d.SetInterposer(nil)
	if _, err := app.Transact(h, 1, data); err != nil {
		t.Fatal(err)
	}
	if ip.calls != 2 || next.calls != 1 {
		t.Errorf("interposer saw transaction after removal: %d, %d", ip.calls, next.calls)
	}
}

func TestOneWayTransactionHasNoReply(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")
	app := mustOpen(t, d, 100, 10000, "app")
	sawNilReply := false
	svc := TransactorFunc(func(call *Call) error {
		sawNilReply = call.Reply == nil
		return nil
	})
	if _, err := AddService(sys, "oneway", "IOneWay", svc); err != nil {
		t.Fatal(err)
	}
	h, err := GetService(app, "oneway")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.TransactOneWay(h, 1, NewParcel()); err != nil {
		t.Fatal(err)
	}
	if !sawNilReply {
		t.Error("oneway transaction delivered a reply parcel")
	}
}

func TestOwnedNodes(t *testing.T) {
	d := NewDriver()
	app := mustOpen(t, d, 100, 10000, "app")
	n1, _ := app.Publish("A", &echoService{})
	n2, _ := app.Publish("B", &echoService{})
	ids := app.OwnedNodes()
	if len(ids) != 2 || ids[0] != n1.ID() || ids[1] != n2.ID() {
		t.Errorf("OwnedNodes = %v, want [%d %d]", ids, n1.ID(), n2.ID())
	}
}
