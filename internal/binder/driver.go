// Package binder simulates the Android Binder IPC driver: the kernel object
// model of nodes, per-process handle tables, references, and transactions
// that Android apps use to talk to system services. Flux's CRIA mechanism
// checkpoints and restores exactly this object model, so the simulation
// exposes the same introspection and injection hooks the paper's modified
// kernel provides (per-process handle enumeration, reference injection at a
// chosen handle id, death notification).
package binder

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Handle is a process-local integer naming a reference to a Binder node.
// Handle 0 conventionally refers to the context manager (ServiceManager),
// as in the real Binder driver.
type Handle int32

// ContextManagerHandle is the well-known handle of the ServiceManager in
// every process, mirroring Binder's handle-0 convention.
const ContextManagerHandle Handle = 0

// NodeID identifies a Binder node (the service side of a connection)
// uniquely within one driver instance (one device).
type NodeID uint64

var (
	// ErrDeadObject is returned when transacting on a handle whose node's
	// owning process has exited, mirroring Android's DeadObjectException.
	ErrDeadObject = errors.New("binder: transaction on dead object")
	// ErrBadHandle is returned when a handle is not present in the calling
	// process's reference table.
	ErrBadHandle = errors.New("binder: bad handle")
	// ErrProcDead is returned for operations on an exited process.
	ErrProcDead = errors.New("binder: process has exited")
	// ErrNotSystem is returned when a process running under an
	// application UID tries to add a service to the ServiceManager.
	// Android lets only system UIDs register services.
	ErrNotSystem = errors.New("binder: only a system UID may add a service")
)

// firstApplicationUID is the lowest UID Android assigns to applications
// (Process.FIRST_APPLICATION_UID). UIDs below it belong to the system.
const firstApplicationUID = 10000

// Call carries one Binder transaction. Services receive the request parcel
// and fill in the reply parcel. Oneway transactions have a nil Reply.
//
// Services see a parcel whose embedded handles are translated into their
// own handle space. The interposer (Selective Record) sees the
// caller-space original plus the caller's handle in Handle, so a replayed
// parcel re-translates correctly against a restored handle table.
type Call struct {
	Code       uint32
	Data       *Parcel
	Reply      *Parcel
	CallingPID int
	CallingUID int    // UID the caller opened the driver with
	Handle     Handle // caller-side handle the transaction was issued on
}

// Transactor is the service side of a Binder node: anything that can field
// a transaction. System services, app-internal services, and replay proxies
// all implement it.
type Transactor interface {
	Transact(call *Call) error
}

// TransactorFunc adapts a function to the Transactor interface.
type TransactorFunc func(call *Call) error

// Transact calls f(call).
func (f TransactorFunc) Transact(call *Call) error { return f(call) }

// Driver is one device's Binder driver instance. It owns the node table,
// all per-process state, and the ServiceManager registry.
type Driver struct {
	mu         sync.Mutex
	nextNodeID NodeID
	procs      map[int]*Proc
	sm         *ServiceManager

	// interposer observes every successful transaction dispatched through
	// the driver; Selective Record installs itself here. Guarded by mu.
	interposer Interposer
}

// Interposer observes transactions in flight. It runs on the caller's side
// after the transaction completes successfully. Selective Record is the
// only interposer in Flux.
type Interposer interface {
	ObserveTransaction(callingPID int, node *Node, call *Call)
}

// NewDriver creates a fresh Binder driver with an empty ServiceManager.
func NewDriver() *Driver {
	d := &Driver{
		nextNodeID: 1,
		procs:      make(map[int]*Proc),
	}
	d.sm = newServiceManager(d)
	return d
}

// ServiceManager returns the device's context manager.
func (d *Driver) ServiceManager() *ServiceManager { return d.sm }

// SetInterposer installs the transaction observer, replacing any other;
// nil removes it. It applies to transactions started after the call
// returns.
func (d *Driver) SetInterposer(ip Interposer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.interposer = ip
}

// Node is the service side of a Binder connection: an object owned by one
// process that other processes reference through handles.
type Node struct {
	id    NodeID
	owner *Proc
	svc   Transactor
	descr string // interface descriptor, e.g. "android.app.INotificationManager"
	dead  bool
}

// ID returns the node's driver-unique id.
func (n *Node) ID() NodeID { return n.id }

// OwnerPID returns the pid of the process that published the node.
func (n *Node) OwnerPID() int { return n.owner.pid }

// Descriptor returns the node's interface descriptor string.
func (n *Node) Descriptor() string { return n.descr }

// Service returns the Transactor behind the node.
func (n *Node) Service() Transactor { return n.svc }

// ref is one process's reference to a node, with registered death
// recipients. Handle tables hold refs by value: code that changes one
// writes it back.
type ref struct {
	node  *Node
	death []func()
}

// Proc is the per-process Binder state: the handle table and owned nodes.
type Proc struct {
	driver *Driver
	pid    int
	uid    int
	name   string
	dead   bool

	nextHandle Handle
	handles    map[Handle]ref
	// handleOf indexes handles by node: the handle Ref returns for a node
	// the process already references. Every insert into handles updates
	// it (OpenProc's handle 0, refLocked, InjectRef), and so does the
	// one delete (unrefLocked); when a node is held at several handles it
	// keeps the first.
	handleOf map[*Node]Handle
	owned    map[NodeID]*Node
}

// OpenProc registers a process running as uid with the driver and
// installs the handle-0 reference to the ServiceManager. It is analogous
// to opening /dev/binder. The driver stamps uid on every transaction the
// process starts.
func (d *Driver) OpenProc(pid, uid int, name string) (*Proc, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.procs[pid]; ok {
		return nil, fmt.Errorf("binder: pid %d already open", pid)
	}
	p := newProc(d, pid, uid, name)
	p.handles[ContextManagerHandle] = ref{node: d.sm.node}
	p.handleOf[d.sm.node] = ContextManagerHandle
	d.procs[pid] = p
	return p, nil
}

func newProc(d *Driver, pid, uid int, name string) *Proc {
	return &Proc{
		driver:     d,
		pid:        pid,
		uid:        uid,
		name:       name,
		nextHandle: 1,
		handles:    make(map[Handle]ref),
		handleOf:   make(map[*Node]Handle),
		owned:      make(map[NodeID]*Node),
	}
}

// Proc returns the Binder state for pid, or nil if the pid never opened the
// driver or has exited.
func (d *Driver) Proc(pid int) *Proc {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.procs[pid]
}

// PID returns the process id this state belongs to.
func (p *Proc) PID() int { return p.pid }

// Name returns the process name supplied at open time.
func (p *Proc) Name() string { return p.name }

// Publish creates a node owned by this process for svc with the given
// interface descriptor, returning the node. The owner does not automatically
// hold a handle to its own node; callers that need one can Ref it.
func (p *Proc) Publish(descr string, svc Transactor) (*Node, error) {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	return p.publishLocked(descr, svc)
}

func (p *Proc) publishLocked(descr string, svc Transactor) (*Node, error) {
	if p.dead {
		return nil, ErrProcDead
	}
	d := p.driver
	n := &Node{id: d.nextNodeID, owner: p, svc: svc, descr: descr}
	d.nextNodeID++
	p.owned[n.id] = n
	return n, nil
}

// Ref installs a reference to node in this process's handle table and
// returns its handle, reusing an existing handle if the process already
// references the node (as the real driver does).
func (p *Proc) Ref(node *Node) (Handle, error) {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	return p.refLocked(node)
}

func (p *Proc) refLocked(node *Node) (Handle, error) {
	if p.dead {
		return 0, ErrProcDead
	}
	if node == nil || node.dead {
		return 0, ErrDeadObject
	}
	if h, ok := p.handleOf[node]; ok {
		return h, nil
	}
	h := p.nextHandle
	p.nextHandle++
	p.handles[h] = ref{node: node}
	p.handleOf[node] = h
	return h, nil
}

// InjectRef installs a reference to node at a specific handle id. It is the
// restore-side hook CRIA uses so a migrated app keeps seeing the handle ids
// it held on the home device. Injecting over an existing live handle fails.
func (p *Proc) InjectRef(h Handle, node *Node) error {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	if p.dead {
		return ErrProcDead
	}
	if node == nil || node.dead {
		return ErrDeadObject
	}
	if old, ok := p.handles[h]; ok {
		if !old.node.dead {
			return fmt.Errorf("binder: handle %d already bound to live node %d", h, old.node.id)
		}
		if p.handleOf[old.node] == h {
			delete(p.handleOf, old.node)
		}
	}
	p.handles[h] = ref{node: node}
	if _, ok := p.handleOf[node]; !ok {
		p.handleOf[node] = h
	}
	if h >= p.nextHandle {
		p.nextHandle = h + 1
	}
	return nil
}

// Node resolves a handle to its node.
func (p *Proc) Node(h Handle) (*Node, error) {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := p.handles[h]
	if !ok {
		return nil, fmt.Errorf("%w: %d in pid %d", ErrBadHandle, h, p.pid)
	}
	return r.node, nil
}

// Handles returns the process's handle table as a sorted snapshot. CRIA
// walks this to checkpoint Binder state.
func (p *Proc) Handles() []HandleEntry {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]HandleEntry, 0, len(p.handles))
	for h, r := range p.handles {
		out = append(out, HandleEntry{
			Handle:     h,
			Node:       r.node.id,
			OwnerPID:   r.node.owner.pid,
			Descriptor: r.node.descr,
			Dead:       r.node.dead,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}

// HandleEntry is one row of a process's handle table snapshot.
type HandleEntry struct {
	Handle     Handle
	Node       NodeID
	OwnerPID   int
	Descriptor string
	Dead       bool
}

// OwnedNodes returns the ids of nodes this process has published, sorted.
func (p *Proc) OwnedNodes() []NodeID {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeID, 0, len(p.owned))
	for id := range p.owned {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkToDeath registers fn to run when the node behind h dies. If the node
// is already dead, fn runs immediately.
func (p *Proc) LinkToDeath(h Handle, fn func()) error {
	d := p.driver
	d.mu.Lock()
	r, ok := p.handles[h]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %d in pid %d", ErrBadHandle, h, p.pid)
	}
	if r.node.dead {
		d.mu.Unlock()
		fn()
		return nil
	}
	r.death = append(r.death, fn)
	p.handles[h] = r
	d.mu.Unlock()
	return nil
}

// Transact performs a synchronous Binder transaction on handle h. Handles
// embedded in the request parcel are translated from the caller's handle
// space into the callee's, as the real driver does.
func (p *Proc) Transact(h Handle, code uint32, data *Parcel) (*Parcel, error) {
	return p.transact(h, code, data, false)
}

// TransactOneWay performs an asynchronous (oneway) transaction: no reply
// parcel is produced. In the simulation the call still executes inline,
// which preserves ordering while keeping tests deterministic.
func (p *Proc) TransactOneWay(h Handle, code uint32, data *Parcel) error {
	_, err := p.transact(h, code, data, true)
	return err
}

// frame is one transaction's call and its reply parcel, allocated as one
// object. The reply handed back to the caller keeps the frame alive; no
// service, proxy or interposer keeps the Call after it returns.
type frame struct {
	call  Call
	reply Parcel
}

func (p *Proc) transact(h Handle, code uint32, data *Parcel, oneway bool) (*Parcel, error) {
	d := p.driver
	d.mu.Lock()
	if p.dead {
		d.mu.Unlock()
		return nil, ErrProcDead
	}
	r, ok := p.handles[h]
	if !ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %d in pid %d", ErrBadHandle, h, p.pid)
	}
	node := r.node
	if node.dead {
		d.mu.Unlock()
		return nil, ErrDeadObject
	}
	// Translate embedded handles into the callee's handle space, working on
	// a copy so the caller's parcel — which the interposer observes and the
	// record log persists — keeps caller-space handle values. added holds
	// the handles translation newly created in the callee's table, which a
	// failed transaction takes back.
	delivered := data
	var added []Handle
	if data != nil && data.hasHandle() {
		delivered = data.Clone()
		for i := range delivered.entries {
			if delivered.entries[i].kind != KindHandle {
				continue
			}
			src, ok := p.handles[Handle(delivered.entries[i].i64)]
			if !ok {
				node.owner.unrefLocked(added)
				d.mu.Unlock()
				return nil, fmt.Errorf("%w: embedded handle %d", ErrBadHandle, delivered.entries[i].i64)
			}
			_, held := node.owner.handleOf[src.node]
			th, err := node.owner.refLocked(src.node)
			if err != nil {
				node.owner.unrefLocked(added)
				d.mu.Unlock()
				return nil, fmt.Errorf("binder: translating embedded handle: %w", err)
			}
			if !held {
				added = append(added, th)
			}
			delivered.entries[i].i64 = int64(th)
		}
	}
	ip := d.interposer
	d.mu.Unlock()

	f := &frame{call: Call{Code: code, Data: delivered, CallingPID: p.pid, CallingUID: p.uid, Handle: h}}
	call := &f.call
	if !oneway {
		call.Reply = &f.reply
	}
	if err := node.svc.Transact(call); err != nil {
		if len(added) > 0 {
			d.mu.Lock()
			node.owner.unrefLocked(added)
			d.mu.Unlock()
		}
		return nil, err
	}
	if call.Reply != nil {
		// Translate reply handles from the callee's space into the caller's,
		// as the real driver does for returned Binder objects (e.g. the
		// SensorEventConnection handle).
		if call.Reply.hasHandle() {
			d.mu.Lock()
			for i := range call.Reply.entries {
				if call.Reply.entries[i].kind != KindHandle {
					continue
				}
				src, ok := node.owner.handles[Handle(call.Reply.entries[i].i64)]
				if !ok {
					d.mu.Unlock()
					return nil, fmt.Errorf("%w: reply handle %d", ErrBadHandle, call.Reply.entries[i].i64)
				}
				th, err := p.refLocked(src.node)
				if err != nil {
					d.mu.Unlock()
					return nil, fmt.Errorf("binder: translating reply handle: %w", err)
				}
				call.Reply.entries[i].i64 = int64(th)
			}
			d.mu.Unlock()
		}
	}
	if ip != nil {
		// The service is done with call: the interposer observes it with
		// the caller-space request in place of the translated one.
		call.Data = data
		ip.ObserveTransaction(p.pid, node, call)
	}
	return call.Reply, nil
}

// unrefLocked removes the refs at hs from the handle table, taking back
// what a failed transaction's handle translation added. Caller holds
// the driver mutex.
func (p *Proc) unrefLocked(hs []Handle) {
	for _, h := range hs {
		r, ok := p.handles[h]
		if !ok {
			continue
		}
		delete(p.handles, h)
		if p.handleOf[r.node] == h {
			delete(p.handleOf, r.node)
		}
	}
}

// Exit tears down the process's Binder state: all owned nodes die and death
// recipients across the driver fire. It is idempotent.
func (p *Proc) Exit() {
	d := p.driver
	d.mu.Lock()
	if p.dead {
		d.mu.Unlock()
		return
	}
	p.dead = true
	delete(d.procs, p.pid)
	var dying []*Node
	for _, n := range p.owned {
		n.dead = true
		dying = append(dying, n)
		d.sm.dropNodeLocked(n)
	}
	// Collect death recipients while holding the lock, fire after releasing.
	var recipients []func()
	for _, other := range d.procs {
		for h, r := range other.handles {
			for _, n := range dying {
				if r.node == n && r.death != nil {
					recipients = append(recipients, r.death...)
					r.death = nil
					other.handles[h] = r
				}
			}
		}
	}
	d.mu.Unlock()
	for _, fn := range recipients {
		fn()
	}
}

// Dead reports whether the process has exited.
func (p *Proc) Dead() bool {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	return p.dead
}
