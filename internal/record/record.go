// Package record implements Flux's Selective Record mechanism (paper §3.2).
//
// A Recorder interposes on Binder transactions (via binder.Interposer) and
// consults the compiled decoration rules of each registered service
// interface. Calls to @record-decorated methods are appended to a per-app
// call log; each new call first evaluates its @drop/@if clauses against the
// log and removes entries it has made stale, keeping the log small.
//
// Drop semantics (from Table 1 and Figures 7/9 of the paper, with one
// clarification): when a call to method M matches previously recorded calls
// of the methods in M's @drop list — a previous call matches if, for any one
// @if/@elif signature, every named argument is equal — the matching entries
// are removed from the log. The keyword "this" makes M itself a drop
// target. Additionally, if "this" is in the drop list and the match removed
// an entry of a method *other than* M, the triggering call itself is not
// recorded: the pair annihilated each other (enqueueNotification +
// cancelNotification). A match that only removed previous calls to M itself
// records the new call, because it *replaces* the old state
// (IAlarmManager.set called twice with the same PendingIntent).
//
// Because the recorder sits on every decorated Binder transaction, the
// package treats recording as a hot path. The decorations are fixed once
// the AIDL is compiled, so the recorder keeps no rule state of its own:
// aidl.Parse compiles each decorated method once per process into
// read-only tables (aidl.Method.Drops: drop targets with "this" resolved
// and duplicates removed, every @if/@elif argument as a parameter index
// in the triggering method and in each target; aidl.Method.ComparedParams:
// the parameters any @if can compare), and every Recorder on every device
// reads those. The call log is sharded per app (see log.go), @drop
// evaluation consults a per-(interface, method) index instead of scanning
// the log, and each entry caches the typed key (binder.Key) of exactly
// the arguments some @if compares, in ComparedParams order, so signature
// matching never re-parses parcels under a lock and renders nothing. Keys
// are equal exactly when the arguments' binder EntryString forms are,
// which stays the reference rendering. A recorded call allocates only
// what the log keeps: the entry, one buffer holding the marshalled
// request and reply, and its cached keys.
package record

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flux/internal/aidl"
	"flux/internal/binder"
)

// Entry is one recorded service call.
type Entry struct {
	Seq       uint64
	App       string // package name of the calling app
	Service   string // ServiceManager registration name
	Interface string // interface descriptor
	Method    string
	Code      uint32
	Handle    binder.Handle // caller-side handle the call was issued on
	At        time.Time     // virtual time of the call
	Data      []byte        // marshalled request parcel
	Reply     []byte        // marshalled reply parcel; nil for oneway calls

	// args caches the key of each request argument some @if signature
	// compares, in the order of aidl.Method.ComparedParams, so it holds
	// nothing for an argument no @if reads. An argument that cannot be
	// read has the zero Key, which matches nothing because no entry has
	// it. The Recorder fills it at append time from the live parcel;
	// entries loaded from disk or appended directly compute it lazily on
	// first signature match. Immutable once set; guarded by the shard
	// lock until then.
	args []binder.Key

	// dead marks a tombstoned entry awaiting compaction. Guarded by the
	// owning shard's lock; entries returned by AppEntries are copies and
	// always live.
	dead bool
}

// Parcel decodes the entry's request parcel.
func (e *Entry) Parcel() (*binder.Parcel, error) {
	return binder.UnmarshalParcel(e.Data)
}

// Size returns the entry's serialized size in bytes, used for transfer
// accounting during migration.
func (e *Entry) Size() int {
	return 8 + 4 + 4 + 8 + // seq, code, handle, time
		4*4 + len(e.App) + len(e.Service) + len(e.Interface) + len(e.Method) +
		4 + len(e.Data) + 4 + len(e.Reply)
}

// cacheArgs keys the arguments of m some @if compares, in
// ComparedParams order, the precomputation that lets @if matching skip
// parcel parsing. It returns nil when no @if compares any argument of
// m, and leaves the zero Key for an argument the parcel lacks, which
// matches nothing. The keys share the parcel's strings.
func cacheArgs(m *aidl.Method, data *binder.Parcel) []binder.Key {
	compared := m.ComparedParams()
	if len(compared) == 0 {
		return nil
	}
	args := make([]binder.Key, len(compared))
	for s, i := range compared {
		args[s] = data.EntryKey(i)
	}
	return args
}

// argValues returns the entry's cached argument keys, computing them
// from the request parcel on first use. Callers must hold the owning
// shard's lock (the Log's pruning predicates do), which also publishes
// the memoized slice safely.
func (e *Entry) argValues(m *aidl.Method) []binder.Key {
	if e.args == nil {
		p, err := binder.UnmarshalParcel(e.Data)
		if err != nil {
			e.args = make([]binder.Key, len(m.ComparedParams())) // malformed: matches nothing
		} else {
			e.args = cacheArgs(m, p)
		}
	}
	return e.args
}

// maxEntryPrealloc bounds the slice capacity hinted by an untrusted
// entry count, so a forged header cannot drive a multi-gigabyte
// allocation before the first decode failure.
const maxEntryPrealloc = 1 << 16

// UnmarshalEntries decodes a log slice serialized by MarshalApp. Each
// entry costs its struct and one buffer for its request and reply: the
// names (App, Service, Interface, Method) are interned across the blob,
// which holds one app's log.
func UnmarshalEntries(data []byte) ([]*Entry, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("record: truncated log: %d bytes", len(data))
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	prealloc := int(n)
	if prealloc > maxEntryPrealloc {
		prealloc = maxEntryPrealloc
	}
	out := make([]*Entry, 0, prealloc)
	names := make(interner)
	for i := uint32(0); i < n; i++ {
		e, consumed, err := decodeEntry(data, names)
		if err != nil {
			return nil, fmt.Errorf("record: entry %d: %w", i, err)
		}
		data = data[consumed:]
		out = append(out, e)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("record: %d trailing bytes after log", len(data))
	}
	return out, nil
}

// SplitEntries slices a MarshalApp blob into its per-entry wire
// records without copying. These per-entry slices are exactly the
// payloads the seglog hash chain is computed over, so the home device
// (building the anchor) and the guest (verifying before replay) frame
// the log identically.
func SplitEntries(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("record: truncated log: %d bytes", len(data))
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	prealloc := int(n)
	if prealloc > maxEntryPrealloc {
		prealloc = maxEntryPrealloc
	}
	out := make([][]byte, 0, prealloc)
	for i := uint32(0); i < n; i++ {
		f, err := frameEntry(data)
		if err != nil {
			return nil, fmt.Errorf("record: entry %d: %w", i, err)
		}
		out = append(out, data[:f.size])
		data = data[f.size:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("record: %d trailing bytes after log", len(data))
	}
	return out, nil
}

// entryFrame locates the variable-length fields of one wire entry at
// the head of a buffer: field i spans buf[start:end]. A nil reply (a
// oneway call) has oneway set and an empty reply span.
type entryFrame struct {
	strs   [4][2]int // App, Service, Interface, Method
	data   [2]int
	reply  [2]int
	oneway bool
	size   int // bytes the entry occupies
}

// frameEntry walks one entry at the head of data, bounding every
// length-prefixed field by the bytes that remain, without copying
// anything. decodeEntry and SplitEntries share this walk, so a blob
// SplitEntries accepts decodes, and vice versa.
func frameEntry(data []byte) (entryFrame, error) {
	var f entryFrame
	const fixed = 24 // seq, code, handle, time
	if len(data) < fixed {
		return f, fmt.Errorf("record: truncated entry header")
	}
	off := fixed
	var err error
	for i := range f.strs {
		if f.strs[i], err = fieldSpan(data, off, "string"); err != nil {
			return f, err
		}
		off = f.strs[i][1]
	}
	if f.data, err = fieldSpan(data, off, "payload"); err != nil {
		return f, err
	}
	off = f.data[1]
	if uint64(len(data))-uint64(off) >= 4 && binary.BigEndian.Uint32(data[off:]) == ^uint32(0) {
		f.oneway = true
		f.reply = [2]int{off + 4, off + 4}
	} else if f.reply, err = fieldSpan(data, off, "reply"); err != nil {
		return f, err
	}
	f.size = f.reply[1]
	return f, nil
}

// fieldSpan reads the uint32 length prefix at off and returns the span of
// the field it declares. All length guards compare in uint64 space: the
// old `uint32(len(data)) < l` form wrapped for buffers ≥ 4 GiB and could
// accept a short read.
func fieldSpan(data []byte, off int, what string) ([2]int, error) {
	if uint64(len(data))-uint64(off) < 4 {
		return [2]int{}, fmt.Errorf("record: truncated %s length", what)
	}
	l := binary.BigEndian.Uint32(data[off:])
	off += 4
	if uint64(l) > uint64(len(data)-off) {
		return [2]int{}, fmt.Errorf("record: %s declares %d bytes, %d remain", what, l, len(data)-off)
	}
	return [2]int{off, off + int(l)}, nil
}

// interner hands out one string per distinct name across a decode, so
// the entries of one log share their App, Service, Interface and Method
// strings.
type interner map[string]string

// get returns the interned string equal to b.
func (in interner) get(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

// decodeEntry decodes one entry from the head of data, returning the
// bytes consumed. Its request and reply share one buffer, and its names
// come from names.
func decodeEntry(data []byte, names interner) (*Entry, int, error) {
	f, err := frameEntry(data)
	if err != nil {
		return nil, 0, err
	}
	str := func(i int) string { return names.get(data[f.strs[i][0]:f.strs[i][1]]) }
	e := &Entry{
		Seq:       binary.BigEndian.Uint64(data),
		Code:      binary.BigEndian.Uint32(data[8:]),
		Handle:    binder.Handle(int32(binary.BigEndian.Uint32(data[12:]))),
		At:        time.Unix(0, int64(binary.BigEndian.Uint64(data[16:]))).UTC(),
		App:       str(0),
		Service:   str(1),
		Interface: str(2),
		Method:    str(3),
	}
	req, reply := data[f.data[0]:f.data[1]], data[f.reply[0]:f.reply[1]]
	buf := append(make([]byte, 0, len(req)+len(reply)), req...)
	e.Data = buf[:len(req):len(req)]
	if !f.oneway {
		// A zero-length reply decodes to a non-nil empty slice so the
		// nil-means-oneway sentinel round-trips: EntryWire(decodeEntry(w))
		// == w, which anchor verification on the guest depends on.
		e.Reply = append(buf[len(req):], reply...)
	}
	return e, f.size, nil
}

// registeredInterface couples an interface with its registration name.
// The Recorder holds it by value under its mutex; SetFullRecord writes a
// changed full back. The rules live on itf's methods, compiled once by
// aidl.Parse.
type registeredInterface struct {
	itf     *aidl.Interface
	service string
	full    bool // record every method (ablation mode)
}

// Recorder implements Selective Record. Install it on a device's Binder
// driver with driver.SetInterposer(recorder).
type Recorder struct {
	log   *Log
	now   func() time.Time
	pkgOf func(pid int) (string, bool)

	mu         sync.RWMutex
	interfaces map[string]registeredInterface // by descriptor
	paused     map[string]bool                // apps with recording paused (mid-migration)

	observed atomic.Uint64 // all decorated-interface calls seen
	recorded atomic.Uint64 // calls actually appended
	dropped  atomic.Uint64 // triggering calls suppressed by @drop("this") annihilation
}

// Config carries the Recorder's environment hooks.
type Config struct {
	// Now supplies virtual time for entry timestamps.
	Now func() time.Time
	// PackageOf resolves a calling pid to its app package name. Calls from
	// unresolvable pids (system daemons) are not recorded.
	PackageOf func(pid int) (string, bool)
}

// NewRecorder creates a Recorder writing to log.
func NewRecorder(log *Log, cfg Config) *Recorder {
	if cfg.Now == nil {
		panic("record: Config.Now is required")
	}
	if cfg.PackageOf == nil {
		panic("record: Config.PackageOf is required")
	}
	return &Recorder{
		log:        log,
		now:        cfg.Now,
		pkgOf:      cfg.PackageOf,
		interfaces: make(map[string]registeredInterface, bootInterfaces),
		paused:     make(map[string]bool),
	}
}

// bootInterfaces sizes a Recorder's interface table for what one boot
// registers: the 22 Table 2 services and the sensor event connection.
const bootInterfaces = 23

// Log returns the recorder's backing call log.
func (r *Recorder) Log() *Log { return r.log }

// RegisterInterface makes the recorder aware of a decorated service
// interface registered under the given ServiceManager name. itf must come
// from aidl.Parse, which compiles the tables the recorder evaluates.
func (r *Recorder) RegisterInterface(serviceName string, itf *aidl.Interface) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.interfaces[itf.Name] = registeredInterface{itf: itf, service: serviceName}
}

// SetFullRecord switches an interface to full (undecorated) recording,
// the baseline for the selective-vs-full ablation.
func (r *Recorder) SetFullRecord(descriptor string, full bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reg, ok := r.interfaces[descriptor]; ok {
		reg.full = full
		r.interfaces[descriptor] = reg
	}
}

// Pause stops recording for one app while it migrates out.
func (r *Recorder) Pause(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused[app] = true
}

// Resume re-enables recording for an app.
func (r *Recorder) Resume(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.paused, app)
}

// Stats summarizes the recorder's lifetime counters.
type Stats struct {
	// Observed counts every call seen on a decorated interface
	// (including undecorated methods of those interfaces).
	Observed uint64
	// Recorded counts calls actually appended to the log.
	Recorded uint64
	// DroppedByRule counts triggering calls suppressed before ever
	// reaching the log: a @drop list containing "this" matched a
	// previous call of another method, annihilating the pair
	// (enqueueNotification + cancelNotification).
	DroppedByRule uint64
	// Pruned counts previously recorded entries that @drop evaluation
	// later removed from the log (the log-bounding savings of Selective
	// Record). Wholesale DropApp cleanup is excluded.
	Pruned uint64
}

// Stats reports the recorder's observed/recorded/dropped/pruned
// counters (after selective suppression).
func (r *Recorder) Stats() Stats {
	return Stats{
		Observed:      r.observed.Load(),
		Recorded:      r.recorded.Load(),
		DroppedByRule: r.dropped.Load(),
		Pruned:        r.log.DroppedTotal(),
	}
}

// ObserveTransaction implements binder.Interposer. It takes only read
// locks on the recorder, so transactions from different apps proceed in
// parallel; all per-call mutable state lives in the sharded log.
func (r *Recorder) ObserveTransaction(callingPID int, node *binder.Node, call *binder.Call) {
	r.mu.RLock()
	reg, ok := r.interfaces[node.Descriptor()]
	r.mu.RUnlock()
	if !ok {
		return
	}
	app, ok := r.pkgOf(callingPID)
	if !ok {
		return
	}
	r.mu.RLock()
	paused := r.paused[app]
	r.mu.RUnlock()
	if paused {
		return
	}
	r.observed.Add(1)

	m := reg.itf.MethodByCode(call.Code)
	if m == nil {
		return
	}
	if reg.full {
		r.append(app, reg, m, call)
		return
	}
	if m.Record == nil {
		return
	}
	suppress := r.applyDrops(app, reg, m, call)
	if suppress {
		r.dropped.Add(1)
		return
	}
	r.append(app, reg, m, call)
}

// applyDrops evaluates m's compiled drop table against the log and
// reports whether the triggering call itself should be suppressed. It
// visits only the index buckets of the drop-target methods and compares
// cached argument keys, never re-parsing a recorded parcel, and
// allocates nothing for rules with at most eight @if arguments.
func (r *Recorder) applyDrops(app string, reg registeredInterface, m *aidl.Method, call *binder.Call) bool {
	d := m.Drops()
	if d == nil {
		return false
	}
	// The triggering call's @if keys from its live parcel, signature
	// after signature: signature i's keys follow those of 0..i-1.
	var buf [8]binder.Key
	vals := buf[:0]
	for _, sig := range d.Sigs {
		for _, idx := range sig {
			k := call.Data.EntryKey(idx)
			if k == (binder.Key{}) {
				return false // malformed call: drop nothing
			}
			vals = append(vals, k)
		}
	}
	droppedOther := false
	r.log.PruneMatching(app, reg.itf.Name, d.TargetNames, func(e *Entry) bool {
		t := slices.Index(d.TargetNames, e.Method)
		if t < 0 {
			return false
		}
		if len(d.Sigs) > 0 && !anySignatureMatches(d.TargetSigs[t], d.Targets[t].ComparedParams(), e.argValues(d.Targets[t]), vals) {
			return false
		}
		if e.Method != m.Name {
			droppedOther = true
		}
		return true
	})
	return d.Self && droppedOther
}

// anySignatureMatches reports whether, for some signature, every argument
// of a recorded call has the triggering call's key. sigs gives the
// arguments as parameter indexes of the recorded call's method, and
// args holds its cached keys in compared order (its ComparedParams,
// which hold every index sigs names). vals holds the triggering call's
// keys signature after signature, in the same order as sigs.
func anySignatureMatches(sigs [][]int, compared []int, args, vals []binder.Key) bool {
	for _, sig := range sigs {
		want := vals[:len(sig)]
		vals = vals[len(sig):]
		match := true
		for j, idx := range sig {
			s := slices.Index(compared, idx)
			if s < 0 || s >= len(args) || args[s] != want[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// append records call. The marshalled request and reply share one
// buffer; Data is capped at its own length, so nothing appended to it
// can overwrite Reply.
func (r *Recorder) append(app string, reg registeredInterface, m *aidl.Method, call *binder.Call) {
	n := call.Data.Size()
	size := n
	if call.Reply != nil {
		size += call.Reply.Size()
	}
	buf := call.Data.AppendWire(make([]byte, 0, size))
	e := &Entry{
		App:       app,
		Service:   reg.service,
		Interface: reg.itf.Name,
		Method:    m.Name,
		Code:      call.Code,
		Handle:    call.Handle,
		At:        r.now(),
		Data:      buf[:n:n],
		args:      cacheArgs(m, call.Data),
	}
	if call.Reply != nil {
		e.Reply = call.Reply.AppendWire(buf[n:])
	}
	r.log.Append(e)
	r.recorded.Add(1)
}
