// The fleet engine: a shared-clock discrete-event loop driving N
// devices and M concurrent migrations. The loop merges the workload's
// time-sorted arrivals, read through a cursor, with one binary-heap
// event queue.
//
// Hot-path engineering notes (the ≥1M events/sec, 0 allocs/op budget:
// BenchmarkFleet reports events/sec, TestRunSteadyStateAllocs asserts
// the 0 allocs):
//
//   - Arrivals never enter the heap: it holds only the events of
//     migrations in flight, so its size, and each pop's cost, do not
//     grow with the length of the run.
//   - Events are plain values in a hand-rolled binary heap. No
//     container/heap: its interface methods box every Push into an
//     allocation. The heap's backing array is preallocated at build
//     time, at its bound, and retained across runs.
//   - Wait queues are intrusive: a migration waiting on a busy
//     resource (or on AP admission) is linked through mig.next — the
//     preallocated migs slice doubles as the free-list, so enqueue and
//     dequeue never allocate.
//   - A Sim re-runs its spec after Reset without reallocating its
//     event heap, migration records, or resource tables.
//   - All randomness is consumed during workload generation; the
//     event loop is a deterministic replay. Single-threaded by
//     design — worker width only parallelizes the profiling phase, so
//     byte-identical reports at any width are structural, not tested-
//     into-existence.
package fleet

import (
	"flux/internal/migration"
	"flux/internal/netsim"
)

// Event kinds.
const (
	evStart uint8 = iota
	evNodeDone
)

// Migration terminal states.
const (
	stateQueued uint8 = iota
	stateRunning
	stateDone
	stateSuperseded
)

// nilIdx terminates intrusive lists.
const nilIdx int32 = -1

// event is one scheduled occurrence. Value type: events live in the
// heap's backing array, never on the Go heap individually. seq breaks
// time ties in push order, making the pop order a total order.
type event struct {
	at   int64
	seq  uint64
	idx  int32
	kind uint8
}

// resource is one serial execution unit — a device CPU or an AP radio
// band. busy holds the running migration's index; waiters form an
// intrusive FIFO through mig.next.
type resource struct {
	busy         int32
	qHead, qTail int32
}

// apState is one access point: GCRA token-bucket admission plus a
// concurrency cap, with its own intrusive admission FIFO.
type apState struct {
	tat          int64 // GCRA theoretical arrival time
	active       int32
	qHead, qTail int32
}

// mig is one migration request's full lifecycle state. next links the
// record into whichever wait queue it currently sits on (admission or
// one resource FIFO) — a migration waits on at most one thing at a
// time, so one link suffices.
type mig struct {
	arriveNS   int64
	admitNS    int64
	ckptDoneNS int64
	doneNS     int64
	userNS     int64 // accumulated user-perceived latency across hops
	waitNS     int64 // admission wait
	class      int32
	user       int32
	app        int32
	src, dst   int32 // device indices of the current hop
	prof       int32
	node       int32
	hop, hops  int32
	next       int32
	state      uint8
}

// Sim is one fleet simulation: immutable topology plus the mutable
// event state. Build once (NewSim), then Reset+Run any number of
// times — Run allocates nothing, the first run included.
type Sim struct {
	spec  Spec
	wl    *workload
	profs *profiles

	// Topology (immutable after build).
	nDevices  int32
	nAPs      int32
	devRole   []int8  // device → role (model)
	devAP     []int32 // device → AP index
	userDev0  []int32 // user → first device index (devices are contiguous)
	classHops []int32
	classSLO  []int64
	bwPair    [numRoles][numRoles]int64 // link bandwidth by model pair
	bandPair  [numRoles][numRoles]int32 // wire band (0: 2.4 GHz, 1: 5 GHz) by model pair
	userNode  []int32                   // profile → first node with Stage >= Transfer
	admPeriod int64                     // GCRA period ns; 0 = unlimited
	admBurst  int64
	maxConc   int32 // per-AP concurrency cap; 0 = unlimited

	// Mutable per-run state.
	res      []resource // device CPUs, then 2 bands per AP
	aps      []apState
	migs     []mig
	holder   []int32 // (user, app) → device currently holding the app
	inflight []bool
	load     []int32 // device → active migrations touching it

	heap []event
	seq  uint64
	now  int64

	// Tallies.
	events     uint64
	completed  int
	superseded int
	wireBytes  int64
	horizonNS  int64
}

// NewSim generates the workload, measures the migration profiles on a
// workers-wide pool, and builds the engine. workers ≤ 0 uses the
// matrix default; it affects wall-clock speed only, never results.
func NewSim(spec Spec, workers int) (*Sim, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	wl := genWorkload(&spec)
	profs, err := buildProfiles(&spec, wl, workers)
	if err != nil {
		return nil, err
	}
	s := &Sim{spec: spec, wl: wl, profs: profs}
	s.build()
	s.Reset()
	return s, nil
}

// build lays out topology and preallocates every per-run structure.
func (s *Sim) build() {
	spec := &s.spec
	s.nDevices = int32(spec.Users * spec.DevicesPerUser)
	s.nAPs = int32((spec.Users + spec.UsersPerAP - 1) / spec.UsersPerAP)
	s.devRole = make([]int8, s.nDevices)
	s.devAP = make([]int32, s.nDevices)
	s.userDev0 = make([]int32, spec.Users)
	for u := 0; u < spec.Users; u++ {
		s.userDev0[u] = int32(u * spec.DevicesPerUser)
		for d := 0; d < spec.DevicesPerUser; d++ {
			idx := int32(u*spec.DevicesPerUser + d)
			s.devRole[idx] = int8(d % numRoles)
			s.devAP[idx] = int32(u / spec.UsersPerAP)
		}
	}
	s.classHops = make([]int32, len(spec.Classes))
	s.classSLO = make([]int64, len(spec.Classes))
	for ci, c := range spec.Classes {
		s.classHops[ci] = int32(c.Hops)
		s.classSLO[ci] = int64(c.SLOMillis) * 1e6
	}
	for a := int8(0); a < numRoles; a++ {
		for b := int8(0); b < numRoles; b++ {
			ra, rb := modelRadio(a), modelRadio(b)
			link := netsim.Link{A: ra, B: rb}
			s.bwPair[a][b] = link.Bandwidth()
			// The wire occupies the slower radio's band: 802.11
			// airtime is physically serialized per band, and the
			// bottleneck hop is where the transfer actually dwells.
			slow := ra
			if rb.EffectiveBps < ra.EffectiveBps {
				slow = rb
			}
			if slow.Name == modelRadio(roleTV).Name {
				s.bandPair[a][b] = 0 // 2.4 GHz
			} else {
				s.bandPair[a][b] = 1 // 5 GHz
			}
		}
	}
	s.userNode = make([]int32, len(s.profs.graphs))
	for pi := range s.profs.graphs {
		g := &s.profs.graphs[pi]
		s.userNode[pi] = int32(len(g.Nodes))
		for ni := range g.Nodes {
			if g.Nodes[ni].Stage >= migration.StageTransfer {
				s.userNode[pi] = int32(ni)
				break
			}
		}
	}
	if spec.AdmissionRatePerMin > 0 {
		s.admPeriod = int64(60e9 / spec.AdmissionRatePerMin)
	}
	s.admBurst = int64(spec.AdmissionBurst)
	s.maxConc = int32(spec.MaxConcurrentPerAP)

	s.res = make([]resource, int(s.nDevices)+2*int(s.nAPs))
	s.aps = make([]apState, s.nAPs)
	s.migs = make([]mig, len(s.wl.arrivals))
	s.holder = make([]int32, spec.Users*len(s.wl.apps))
	s.inflight = make([]bool, spec.Users*len(s.wl.apps))
	s.load = make([]int32, s.nDevices)
	// Only admitted migrations schedule events, each holds at most one
	// (an evStart or an evNodeDone), and each (user, app) key has at
	// most one in flight, so the heap never outgrows this.
	s.heap = make([]event, 0, min(len(s.wl.arrivals), spec.Users*len(s.wl.apps)))
}

// Reset rewinds the Sim to virtual time zero with the same workload:
// the event queue empties and the next Run reads the arrivals from the
// first. Allocation-free: every structure was preallocated by build.
func (s *Sim) Reset() {
	for i := range s.res {
		s.res[i] = resource{busy: nilIdx, qHead: nilIdx, qTail: nilIdx}
	}
	for i := range s.aps {
		s.aps[i] = apState{qHead: nilIdx, qTail: nilIdx}
	}
	for i := range s.migs {
		a := &s.wl.arrivals[i]
		s.migs[i] = mig{
			arriveNS: a.at,
			class:    a.class,
			user:     a.user,
			app:      a.app,
			src:      nilIdx,
			dst:      nilIdx,
			prof:     nilIdx,
			hops:     s.classHops[a.class],
			next:     nilIdx,
		}
	}
	nApps := int32(len(s.wl.apps))
	for u := int32(0); u < int32(s.spec.Users); u++ {
		for a := int32(0); a < nApps; a++ {
			// Every (user, app) starts on the user's phone.
			s.holder[u*nApps+a] = s.userDev0[u]
		}
	}
	clear(s.inflight)
	clear(s.load)
	s.heap = s.heap[:0]
	s.seq = 0
	s.now = 0
	s.events = 0
	s.completed = 0
	s.superseded = 0
	s.wireBytes = 0
	s.horizonNS = 0
}

// ---- Event heap ---------------------------------------------------------

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) push(at int64, kind uint8, idx int32) {
	s.heap = append(s.heap, event{at: at, seq: s.seq, idx: idx, kind: kind})
	s.seq++
	// Sift up.
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (s *Sim) pop() event {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	h = s.heap
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && evLess(&h[l], &h[smallest]) {
			smallest = l
		}
		if r < last && evLess(&h[r], &h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// ---- Run loop -----------------------------------------------------------

// Run drains the arrival stream and the event queue. At equal times an
// arrival goes first, and arrivals go in workload order; engine events
// keep their push order. Zero allocations (TestRunSteadyStateAllocs);
// single-threaded by design.
func (s *Sim) Run() {
	arrivals := s.wl.arrivals
	next := 0
	for next < len(arrivals) || len(s.heap) > 0 {
		s.events++
		if next < len(arrivals) && (len(s.heap) == 0 || arrivals[next].at <= s.heap[0].at) {
			s.now = arrivals[next].at
			s.arrive(int32(next))
			next++
			continue
		}
		ev := s.pop()
		s.now = ev.at
		switch ev.kind {
		case evStart:
			s.startMig(ev.idx)
		default:
			s.nodeDone(ev.idx)
		}
	}
	s.horizonNS = s.now
}

// Events returns the number of events processed by the last Run.
func (s *Sim) Events() uint64 { return s.events }

// key flattens (user, app) for the holder tables.
func (s *Sim) key(m *mig) int32 {
	return m.user*int32(len(s.wl.apps)) + m.app
}

func (s *Sim) arrive(idx int32) {
	m := &s.migs[idx]
	k := s.key(m)
	if s.inflight[k] {
		// A request for an app whose previous migration is still in
		// flight: superseded, not queued — the user already asked for
		// a newer placement.
		m.state = stateSuperseded
		s.superseded++
		return
	}
	s.inflight[k] = true
	m.src = s.holder[k]
	m.dst = s.place(m)
	m.prof = profIdx(s.devRole[m.src], s.devRole[m.dst], m.app, s.profs.nApps)
	s.load[m.src]++
	s.load[m.dst]++
	// Enqueue on the AP's admission FIFO.
	ap := &s.aps[s.devAP[m.src]]
	if ap.qTail == nilIdx {
		ap.qHead = idx
	} else {
		s.migs[ap.qTail].next = idx
	}
	ap.qTail = idx
	m.next = nilIdx
	s.tryAdmit(s.devAP[m.src])
}

// tryAdmit grants queued migrations while the AP has concurrency
// headroom, spacing grants by the GCRA token bucket: a burst of
// admBurst may pass back-to-back, then grants pace at admPeriod.
func (s *Sim) tryAdmit(apIdx int32) {
	ap := &s.aps[apIdx]
	for ap.qHead != nilIdx && (s.maxConc == 0 || ap.active < s.maxConc) {
		idx := ap.qHead
		m := &s.migs[idx]
		ap.qHead = m.next
		if ap.qHead == nilIdx {
			ap.qTail = nilIdx
		}
		m.next = nilIdx
		grant := s.now
		if s.admPeriod > 0 {
			earliest := ap.tat - (s.admBurst-1)*s.admPeriod
			if earliest > grant {
				grant = earliest
			}
			tat := ap.tat
			if grant > tat {
				tat = grant
			}
			ap.tat = tat + s.admPeriod
		}
		ap.active++
		m.admitNS = grant
		m.waitNS = grant - m.arriveNS
		m.state = stateRunning
		s.push(grant, evStart, idx)
	}
}

func (s *Sim) startMig(idx int32) {
	m := &s.migs[idx]
	m.node = 0
	if s.userNode[m.prof] == 0 {
		m.ckptDoneNS = s.now
	}
	s.acquire(idx)
}

// nodeFor returns the migration's current stage node.
func (s *Sim) nodeFor(m *mig) *migration.StageNode {
	return &s.profs.graphs[m.prof].Nodes[m.node]
}

// resourceFor maps a stage node's declared resource onto the fleet's
// serial units.
func (s *Sim) resourceFor(m *mig, n *migration.StageNode) *resource {
	switch n.Resource {
	case migration.ResourceHomeCPU:
		return &s.res[m.src]
	case migration.ResourceGuestCPU:
		return &s.res[m.dst]
	}
	band := s.bandPair[s.devRole[m.src]][s.devRole[m.dst]]
	return &s.res[s.nDevices+2*s.devAP[m.src]+band]
}

// acquire requests the current node's resource: start immediately if
// free, else join the resource's FIFO.
func (s *Sim) acquire(idx int32) {
	m := &s.migs[idx]
	n := s.nodeFor(m)
	r := s.resourceFor(m, n)
	if r.busy == nilIdx {
		r.busy = idx
		s.push(s.now+int64(n.Duration), evNodeDone, idx)
		return
	}
	if r.qTail == nilIdx {
		r.qHead = idx
	} else {
		s.migs[r.qTail].next = idx
	}
	r.qTail = idx
	m.next = nilIdx
}

func (s *Sim) nodeDone(idx int32) {
	m := &s.migs[idx]
	n := s.nodeFor(m)
	r := s.resourceFor(m, n)
	// Release: hand the resource to the next waiter.
	if r.qHead != nilIdx {
		w := r.qHead
		wm := &s.migs[w]
		r.qHead = wm.next
		if r.qHead == nilIdx {
			r.qTail = nilIdx
		}
		wm.next = nilIdx
		r.busy = w
		s.push(s.now+int64(s.nodeFor(wm).Duration), evNodeDone, w)
	} else {
		r.busy = nilIdx
	}
	m.node++
	if m.node == s.userNode[m.prof] {
		// Checkpoint handed off: the user-perceived window opens.
		m.ckptDoneNS = s.now
	}
	if m.node < int32(len(s.profs.graphs[m.prof].Nodes)) {
		s.acquire(idx)
		return
	}
	s.hopEnd(idx)
}

func (s *Sim) hopEnd(idx int32) {
	m := &s.migs[idx]
	m.userNS += s.now - m.ckptDoneNS
	s.wireBytes += s.profs.graphs[m.prof].TransferredBytes
	k := s.key(m)
	s.holder[k] = m.dst
	s.load[m.src]--
	m.hop++
	if m.hop < m.hops {
		// Next hop of the chain: the destination becomes the source.
		// The admission slot is held across the chain — the chain is
		// one user action.
		m.src = m.dst
		m.dst = s.place(m)
		m.prof = profIdx(s.devRole[m.src], s.devRole[m.dst], m.app, s.profs.nApps)
		s.load[m.dst]++
		m.node = 0
		if s.userNode[m.prof] == 0 {
			m.ckptDoneNS = s.now
		}
		s.acquire(idx)
		return
	}
	m.doneNS = s.now
	m.state = stateDone
	s.completed++
	s.load[m.dst]--
	s.inflight[k] = false
	apIdx := s.devAP[m.src]
	s.aps[apIdx].active--
	s.tryAdmit(apIdx)
}
