// Package kernel simulates the Android flavour of the Linux kernel that Flux
// runs on: processes with fd tables and memory segments, private PID
// namespaces for restore, a virtual clock, and the Android-specific drivers
// the paper's CRIA mechanism must handle — Binder (package binder), ashmem,
// pmem, the alarm driver, wakelocks, and the Logger driver.
package kernel

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"flux/internal/binder"
)

// Kernel is one device's kernel instance.
type Kernel struct {
	mu      sync.Mutex
	version string // e.g. "3.4" — the paper migrates across 3.1 and 3.4
	clock   *Clock
	binder  *binder.Driver
	nextPID int
	procs   map[int]*Process

	Ashmem    *AshmemDriver
	Pmem      *PmemDriver
	Logger    *LoggerDriver
	Wakelocks *WakelockDriver
	Alarms    *AlarmDriver
}

// New boots a kernel with the given version string.
func New(version string) *Kernel {
	k := &Kernel{
		version: version,
		clock:   NewClock(),
		binder:  binder.NewDriver(),
		nextPID: 1,
		procs:   make(map[int]*Process),
	}
	k.Ashmem = newAshmemDriver()
	k.Pmem = newPmemDriver(256 << 20) // 256 MB contiguous pool
	k.Logger = newLoggerDriver(4096)
	k.Wakelocks = newWakelockDriver()
	k.Alarms = newAlarmDriver(k.clock)
	return k
}

// Version returns the kernel version string.
func (k *Kernel) Version() string { return k.version }

// Clock returns the device's virtual time source.
func (k *Kernel) Clock() *Clock { return k.clock }

// Binder returns the device's Binder driver.
func (k *Kernel) Binder() *binder.Driver { return k.binder }

// SegmentKind labels a memory mapping for checkpoint accounting.
type SegmentKind uint8

const (
	// SegHeap is Dalvik heap and native malloc memory: always checkpointed.
	SegHeap SegmentKind = iota
	// SegCode is file-backed executable mapping: never checkpointed (the
	// pairing phase ships the backing files instead).
	SegCode
	// SegGraphics is GPU-adjacent memory (texture caches, command buffers):
	// must be empty at checkpoint time; CRIA's prep phase frees it.
	SegGraphics
	// SegAshmem is an ashmem-backed shared mapping.
	SegAshmem
)

func (s SegmentKind) String() string {
	switch s {
	case SegHeap:
		return "heap"
	case SegCode:
		return "code"
	case SegGraphics:
		return "graphics"
	case SegAshmem:
		return "ashmem"
	}
	return fmt.Sprintf("segkind(%d)", uint8(s))
}

// MemSegment models one mapping of a process. Payload bytes are described by
// (Size, Entropy) rather than materialized: Entropy in [0,1] is the fraction
// of the segment that survives DEFLATE, which lets the migration pipeline
// compute compressed image sizes deterministically without allocating tens
// of megabytes per simulated app.
type MemSegment struct {
	Name    string
	Kind    SegmentKind
	Size    int64
	Entropy float64
	// Gen counts the segment's content generations: DirtySegments bumps
	// it when the app rewrites part of the mapping. Sizes and entropy are
	// unchanged by a rewrite; only the content identity (and therefore the
	// delta-migration chunk digests) moves. Zero means never rewritten.
	Gen uint64
	// DirtyFrac is the fraction of the segment rewritten in the Gen-1→Gen
	// step; the rolling-delta fallback ships roughly this fraction of the
	// segment's wire bytes when the peer caches the previous generation.
	DirtyFrac float64
}

// CompressedSize returns the segment's size after compression.
func (m MemSegment) CompressedSize() int64 {
	if m.Entropy < 0 {
		return 0
	}
	if m.Entropy > 1 {
		return m.Size
	}
	return int64(float64(m.Size) * m.Entropy)
}

// FDKind labels a file descriptor.
type FDKind uint8

const (
	FDFile FDKind = iota
	FDSocket
	FDUnixSocket
	FDAshmem
	FDLogger
	FDBinder
)

func (f FDKind) String() string {
	switch f {
	case FDFile:
		return "file"
	case FDSocket:
		return "socket"
	case FDUnixSocket:
		return "unix"
	case FDAshmem:
		return "ashmem"
	case FDLogger:
		return "logger"
	case FDBinder:
		return "binder"
	}
	return fmt.Sprintf("fdkind(%d)", uint8(f))
}

// FD is one entry in a process's descriptor table.
type FD struct {
	Num    int
	Kind   FDKind
	Path   string // file path, socket peer, or ashmem region name
	Offset int64
}

// Process is a simulated process: fd table, memory map, namespace identity.
type Process struct {
	kernel *Kernel
	pid    int // global pid
	vpid   int // pid as seen inside its namespace
	ns     *PIDNamespace
	name   string
	uid    int
	dead   bool

	mu       sync.Mutex
	nextFD   int
	fds      map[int]*FD
	segments []MemSegment
	binder   *binder.Proc
}

// ProcessOptions configures process creation.
type ProcessOptions struct {
	Name string
	UID  int
	// Namespace places the process in a private PID namespace with the
	// given virtual pid; nil means the root namespace (vpid == pid).
	Namespace *PIDNamespace
	VPID      int
}

// CreateProcess spawns a process and opens the Binder driver for it.
func (k *Kernel) CreateProcess(opts ProcessOptions) (*Process, error) {
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	k.mu.Unlock()

	vpid := pid
	ns := opts.Namespace
	if ns != nil {
		if opts.VPID <= 0 {
			return nil, fmt.Errorf("kernel: namespace process needs explicit vpid")
		}
		vpid = opts.VPID
		if err := ns.bind(vpid, pid); err != nil {
			return nil, err
		}
	}
	bp, err := k.binder.OpenProc(pid, opts.UID, opts.Name)
	if err != nil {
		return nil, err
	}
	p := &Process{
		kernel: k,
		pid:    pid,
		vpid:   vpid,
		ns:     ns,
		name:   opts.Name,
		uid:    opts.UID,
		nextFD: 3, // 0,1,2 are stdio
		fds:    make(map[int]*FD),
		binder: bp,
	}
	k.mu.Lock()
	k.procs[pid] = p
	k.mu.Unlock()
	return p, nil
}

// Process looks up a live process by global pid.
func (k *Kernel) Process(pid int) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.procs[pid]
}

// Processes returns all live processes sorted by pid.
func (k *Kernel) Processes() []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pid < out[j].pid })
	return out
}

// PID returns the global pid.
func (p *Process) PID() int { return p.pid }

// VPID returns the pid as seen inside the process's namespace.
func (p *Process) VPID() int { return p.vpid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// UID returns the owning uid.
func (p *Process) UID() int { return p.uid }

// Namespace returns the process's PID namespace, nil for the root namespace.
func (p *Process) Namespace() *PIDNamespace { return p.ns }

// Binder returns the process's Binder driver state.
func (p *Process) Binder() *binder.Proc { return p.binder }

// Dead reports whether the process has exited.
func (p *Process) Dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// OpenFD installs a descriptor of the given kind and returns its number.
func (p *Process) OpenFD(kind FDKind, path string) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return 0, fmt.Errorf("kernel: open on dead process %d", p.pid)
	}
	fd := &FD{Num: p.nextFD, Kind: kind, Path: path}
	p.fds[fd.Num] = fd
	p.nextFD++
	return fd.Num, nil
}

// OpenFDAt installs a descriptor at a specific number, the restore-side
// primitive CRIA uses so migrated apps keep their descriptor numbers (e.g.
// the SensorEventConnection Unix socket that is dup2'd into place).
func (p *Process) OpenFDAt(num int, kind FDKind, path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return fmt.Errorf("kernel: open on dead process %d", p.pid)
	}
	if _, ok := p.fds[num]; ok {
		return fmt.Errorf("kernel: fd %d already open in pid %d", num, p.pid)
	}
	p.fds[num] = &FD{Num: num, Kind: kind, Path: path}
	if num >= p.nextFD {
		p.nextFD = num + 1
	}
	return nil
}

// Dup2 duplicates oldfd onto newfd, closing newfd first if open — the exact
// primitive the SensorService replay proxy uses to keep socket numbers
// stable across migration.
func (p *Process) Dup2(oldfd, newfd int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	src, ok := p.fds[oldfd]
	if !ok {
		return fmt.Errorf("kernel: dup2: fd %d not open in pid %d", oldfd, p.pid)
	}
	cp := *src
	cp.Num = newfd
	p.fds[newfd] = &cp
	delete(p.fds, oldfd)
	if newfd >= p.nextFD {
		p.nextFD = newfd + 1
	}
	return nil
}

// CloseFD removes a descriptor.
func (p *Process) CloseFD(num int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.fds[num]; !ok {
		return fmt.Errorf("kernel: close: fd %d not open in pid %d", num, p.pid)
	}
	delete(p.fds, num)
	return nil
}

// FDs returns a snapshot of the descriptor table sorted by number.
func (p *Process) FDs() []FD {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FD, 0, len(p.fds))
	for _, fd := range p.fds {
		out = append(out, *fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// FD returns the descriptor with the given number, or nil.
func (p *Process) FD(num int) *FD {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fd, ok := p.fds[num]; ok {
		cp := *fd
		return &cp
	}
	return nil
}

// MapSegment adds a memory mapping.
func (p *Process) MapSegment(seg MemSegment) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.segments = append(p.segments, seg)
}

// UnmapSegments removes all mappings matching pred, returning bytes freed.
func (p *Process) UnmapSegments(pred func(MemSegment) bool) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var kept []MemSegment
	var freed int64
	for _, s := range p.segments {
		if pred(s) {
			freed += s.Size
		} else {
			kept = append(kept, s)
		}
	}
	p.segments = kept
	return freed
}

// Segments returns a snapshot of the memory map.
func (p *Process) Segments() []MemSegment {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MemSegment, len(p.segments))
	copy(out, p.segments)
	return out
}

// MemoryBytes sums segment sizes, optionally filtered by kind.
func (p *Process) MemoryBytes(kinds ...SegmentKind) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, s := range p.segments {
		if len(kinds) == 0 {
			total += s.Size
			continue
		}
		for _, k := range kinds {
			if s.Kind == k {
				total += s.Size
				break
			}
		}
	}
	return total
}

// DirtySegments models foreground app activity between migration hops:
// the app touches roughly frac of the process's checkpointable bytes
// (heap + ashmem), rewriting rewrite of the touched region. Segments are
// picked in a seed-deterministic order until their sizes cover frac of
// the checkpointable total; a segment only partially inside the target
// (the common case — the Dalvik heap is one large mapping) takes a
// proportionally smaller DirtyFrac, so the rewritten byte total tracks
// frac×rewrite regardless of segment granularity. Every touched segment
// advances one content generation (both fractions clamp to [0,1]).
// Returns the bytes rewritten. The delta-migration commuter scenario
// drives this between hops, so the dirty set — and therefore every chunk
// digest — is a pure function of (memory map, frac, rewrite, seed).
func (p *Process) DirtySegments(frac, rewrite float64, seed int64) int64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if rewrite < 0 {
		rewrite = 0
	}
	if rewrite > 1 {
		rewrite = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var idx []int
	var total int64
	for i, s := range p.segments {
		if (s.Kind == SegHeap || s.Kind == SegAshmem) && s.Size > 0 {
			idx = append(idx, i)
			total += s.Size
		}
	}
	if total == 0 || frac == 0 || rewrite == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	target := int64(float64(total) * frac)
	var covered, dirtied int64
	for _, i := range idx {
		if covered >= target {
			break
		}
		seg := &p.segments[i]
		span := seg.Size
		if remaining := target - covered; remaining < span {
			span = remaining
		}
		seg.Gen++
		seg.DirtyFrac = float64(span) / float64(seg.Size) * rewrite
		covered += span
		dirtied += int64(float64(span) * rewrite)
	}
	return dirtied
}

// Exit terminates the process: Binder state tears down (firing death
// recipients), descriptors close, and the pid leaves its namespace.
func (p *Process) Exit() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	p.fds = make(map[int]*FD)
	p.segments = nil
	p.mu.Unlock()

	p.binder.Exit()
	if p.ns != nil {
		p.ns.unbind(p.vpid)
	}
	k := p.kernel
	k.mu.Lock()
	delete(k.procs, p.pid)
	k.mu.Unlock()
}
