package record

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the sharded call log. The paper's prototype keeps
// the Selective Record log in SQLite; earlier revisions of this package
// used one flat []*Entry behind a single mutex, which made every Append
// contend globally and every @drop evaluation scan (and re-parse) the
// whole log. The sharded layout restores the asymptotics the paper's
// always-on interposition needs:
//
//   - one shard per app, each with its own mutex: apps never contend with
//     each other on Append, and pruning locks only the pruning app;
//   - a per-(interface, method) secondary index inside each shard, so
//     @drop evaluation visits only candidate entries of the drop-target
//     methods instead of every live entry;
//   - incremental live-byte and live-count accounting, making SizeBytes
//     and Len O(1) per shard instead of O(total entries);
//   - entries kept in append order (sequence order is guaranteed because
//     sequence numbers are assigned under the shard lock), so AppEntries
//     needs no sort.
//
// Removal marks entries dead in place and filters the index bucket; the
// backing slice is compacted amortized (whenever dead entries outnumber
// live ones), keeping prune cost proportional to the candidate set.

// methodKey identifies an index bucket: one decorated method of one
// interface.
type methodKey struct {
	itf    string
	method string
}

// appShard holds one app's slice of the call log.
type appShard struct {
	mu      sync.Mutex
	entries []*Entry               // append order; may contain tombstoned entries
	index   map[methodKey][]*Entry // live entries per (interface, method)
	dead    int                    // tombstones resident in entries
	live    int                    // live entry count
	bytes   int                    // sum of Size() over live entries
}

// Log is the persistent call log — the simulation's stand-in for the
// SQLite store the paper uses. Entries are sharded per app; pruning and
// extraction are by app so a migration ships only the migrating app's
// calls and a busy foreground app never blocks another app's recording.
//
// The shard directory is a copy-on-write map behind an atomic pointer:
// lookups (every Append) are a single atomic load with no shared-cache-line
// writes, and the rare shard creation copies the map under a mutex.
type Log struct {
	nextSeq atomic.Uint64

	shards  atomic.Pointer[map[string]*appShard]
	shardMu sync.Mutex // serializes copy-on-write shard creation

	pruneDropped   atomic.Uint64 // entries removed by @drop pruning
	cleanupDropped atomic.Uint64 // entries removed by DropApp (migration out / uninstall)
}

// NewLog returns an empty call log.
func NewLog() *Log {
	l := &Log{}
	m := make(map[string]*appShard)
	l.shards.Store(&m)
	return l
}

// shard returns app's shard, creating it on first use.
func (l *Log) shard(app string) *appShard {
	if s := (*l.shards.Load())[app]; s != nil {
		return s
	}
	l.shardMu.Lock()
	defer l.shardMu.Unlock()
	old := *l.shards.Load()
	if s := old[app]; s != nil {
		return s
	}
	s := &appShard{index: make(map[methodKey][]*Entry)}
	next := make(map[string]*appShard, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[app] = s
	l.shards.Store(&next)
	return s
}

// peek returns app's shard without creating it.
func (l *Log) peek(app string) *appShard {
	return (*l.shards.Load())[app]
}

// Append adds an entry, assigning its sequence number.
func (l *Log) Append(e *Entry) {
	s := l.shard(e.App)
	s.mu.Lock()
	// Assigning the sequence under the shard lock guarantees per-shard
	// append order equals sequence order, which AppEntries relies on.
	e.Seq = l.nextSeq.Add(1)
	s.addLocked(e)
	s.mu.Unlock()
}

// restore adds an entry read back from a saved log, keeping its saved
// sequence number; later Appends continue after the largest one. It
// serves LoadFile, which fills a fresh log before anyone else sees it.
func (l *Log) restore(e *Entry) {
	s := l.shard(e.App)
	s.mu.Lock()
	s.addLocked(e)
	s.mu.Unlock()
	if e.Seq > l.nextSeq.Load() {
		l.nextSeq.Store(e.Seq)
	}
}

// addLocked appends a live entry and indexes it. Caller holds s.mu.
func (s *appShard) addLocked(e *Entry) {
	e.dead = false
	s.entries = append(s.entries, e)
	k := methodKey{e.Interface, e.Method}
	s.index[k] = append(s.index[k], e)
	s.live++
	s.bytes += e.Size()
}

// removeLocked tombstones e. Caller holds s.mu and is responsible for
// filtering the index bucket e lives in.
func (s *appShard) removeLocked(e *Entry) {
	e.dead = true
	s.dead++
	s.live--
	s.bytes -= e.Size()
}

// compactLocked drops tombstones from the backing slice once they
// outnumber live entries, amortizing compaction over removals.
func (s *appShard) compactLocked() {
	if s.dead <= s.live {
		return
	}
	kept := s.entries[:0]
	for _, e := range s.entries {
		if !e.dead {
			kept = append(kept, e)
		}
	}
	// Zero the tail so tombstoned entries are collectable.
	for i := len(kept); i < len(s.entries); i++ {
		s.entries[i] = nil
	}
	s.entries = kept
	s.dead = 0
}

// PruneMatching deletes the app's entries of the named methods on iface
// that match pred, returning how many were removed. It visits only the
// index buckets of the candidate methods — the asymptotic win behind
// @drop evaluation on large logs. pred runs under the shard lock and is
// called in sequence order within each method bucket.
func (l *Log) PruneMatching(app, iface string, methods []string, pred func(*Entry) bool) int {
	s := l.peek(app)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, m := range methods {
		k := methodKey{iface, m}
		bucket, ok := s.index[k]
		if !ok {
			continue
		}
		kept := bucket[:0]
		for _, e := range bucket {
			if pred(e) {
				s.removeLocked(e)
				removed++
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			delete(s.index, k)
		} else {
			s.index[k] = kept
		}
	}
	if removed > 0 {
		s.compactLocked()
		l.pruneDropped.Add(uint64(removed))
	}
	return removed
}

// AppEntries returns the app's entries in sequence order.
func (l *Log) AppEntries(app string) []*Entry {
	s := l.peek(app)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Entry
	for _, e := range s.entries {
		if e.dead {
			continue
		}
		cp := *e
		out = append(out, &cp)
	}
	return out
}

// DropApp removes every entry for app (used after a successful migration
// out, and when an app is uninstalled). These removals are accounted as
// cleanup, not as pruning savings — see CleanupDropped.
func (l *Log) DropApp(app string) int {
	s := l.peek(app)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := s.live
	s.entries = nil
	s.index = make(map[methodKey][]*Entry)
	s.dead = 0
	s.live = 0
	s.bytes = 0
	l.cleanupDropped.Add(uint64(removed))
	return removed
}

// Len reports the number of live entries across all apps.
func (l *Log) Len() int {
	n := 0
	for _, s := range *l.shards.Load() {
		s.mu.Lock()
		n += s.live
		s.mu.Unlock()
	}
	return n
}

// DroppedTotal reports how many entries @drop pruning has discarded over
// the log's lifetime — the savings Selective Record buys over full
// record. Entries removed wholesale by DropApp (post-migration cleanup,
// uninstall) are deliberately excluded; see CleanupDropped.
func (l *Log) DroppedTotal() uint64 {
	return l.pruneDropped.Load()
}

// CleanupDropped reports how many entries DropApp removed over the log's
// lifetime (apps migrating out or being uninstalled). Kept separate from
// DroppedTotal so the pruning-savings statistic is not inflated by
// routine cleanup.
func (l *Log) CleanupDropped() uint64 {
	return l.cleanupDropped.Load()
}

// SizeBytes reports the serialized size of the app's log slice. The
// shard maintains the sum incrementally, so this is O(1).
func (l *Log) SizeBytes(app string) int {
	s := l.peek(app)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// MarshalApp serializes the app's entries for transfer inside a
// checkpoint. It encodes the live entries in place under the shard lock
// into one buffer of exactly the right size, copying no entry.
func (l *Log) MarshalApp(app string) []byte {
	s := l.peek(app)
	if s == nil {
		return binary.BigEndian.AppendUint32(nil, 0)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 4+s.bytes), uint32(s.live))
	for _, e := range s.entries {
		if !e.dead {
			buf = appendEntryWire(buf, e)
		}
	}
	return buf
}

// appendEntryWire appends one entry's wire record — the unit the
// seglog hash chain covers and decodeEntry consumes.
func appendEntryWire(buf []byte, e *Entry) []byte {
	buf = binary.BigEndian.AppendUint64(buf, e.Seq)
	buf = binary.BigEndian.AppendUint32(buf, e.Code)
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.Handle))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.At.UnixNano()))
	for _, s := range []string{e.App, e.Service, e.Interface, e.Method} {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Data)))
	buf = append(buf, e.Data...)
	if e.Reply == nil {
		buf = binary.BigEndian.AppendUint32(buf, ^uint32(0))
	} else {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Reply)))
		buf = append(buf, e.Reply...)
	}
	return buf
}

// EntryWire serializes one entry in the wire form the anchor's hash
// chain is computed over. The guest's replay engine re-serializes the
// entries it is handed and verifies them against the image's anchor —
// a defense-in-depth recomputation, so it must be byte-identical to
// what MarshalApp / SaveFile produced on the home device.
func EntryWire(e *Entry) []byte { return appendEntryWire(make([]byte, 0, e.Size()), e) }

// Snapshot returns a copy of every live entry across all apps in
// global sequence order, taken as a single point-in-time cut.
//
// Per-app extraction (AppEntries under one shard lock at a time) is
// fine for migration — only the migrating app's slice matters — but a
// whole-log save must not interleave with concurrent Appends, or the
// saved file is a state the log never occupied (fatal once the file is
// hash-chained: the anchor would commit to a torn cut). Holding
// shardMu blocks new-shard creation, then taking every shard lock in
// sorted order blocks in-flight appends; because sequence numbers are
// assigned under shard locks, the captured sequence set is a
// downward-closed prefix of the counter — a true point-in-time state.
func (l *Log) Snapshot() []*Entry {
	l.shardMu.Lock()
	defer l.shardMu.Unlock()
	shards := *l.shards.Load()
	apps := make([]string, 0, len(shards))
	for app := range shards {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		shards[app].mu.Lock()
	}
	var out []*Entry
	for _, app := range apps {
		for _, e := range shards[app].entries {
			if e.dead {
				continue
			}
			cp := *e
			out = append(out, &cp)
		}
	}
	for _, app := range apps {
		shards[app].mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Apps lists the apps with live entries in the log, sorted. fluxvet's log
// linter iterates it to lint every app slice of a persisted log.
func (l *Log) Apps() []string { return l.appsWithEntries() }

// appsWithEntries lists apps with live entries in the log, sorted.
func (l *Log) appsWithEntries() []string {
	shards := *l.shards.Load()
	out := make([]string, 0, len(shards))
	for app, s := range shards {
		s.mu.Lock()
		live := s.live
		s.mu.Unlock()
		if live > 0 {
			out = append(out, app)
		}
	}
	sort.Strings(out)
	return out
}
