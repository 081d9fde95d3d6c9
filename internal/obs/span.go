package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpanCapacity is the default tracer ring size: enough for a full
// 64-migration evaluation matrix with CRIA sections and replay proxies,
// bounded so an always-on daemon cannot grow without limit.
const DefaultSpanCapacity = 16384

// Attr is one span attribute. Values are restricted to the JSON-friendly
// scalar kinds the exporters understand, and are held in typed fields
// rather than an interface, so building an attribute never allocates.
type Attr struct {
	Key  string
	kind attrKind
	b    bool
	str  string
	i64  int64
	f64  float64
}

type attrKind uint8

const (
	kindString attrKind = iota
	kindInt64
	kindFloat64
	kindBool
)

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: kindString, str: v} }

// Int64 builds an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, kind: kindInt64, i64: v} }

// Float64 builds a float attribute.
func Float64(k string, v float64) Attr { return Attr{Key: k, kind: kindFloat64, f64: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, kind: kindBool, b: v} }

// Value returns the attribute's value as a string, int64, float64 or
// bool.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt64:
		return a.i64
	case kindFloat64:
		return a.f64
	case kindBool:
		return a.b
	default:
		return a.str
	}
}

// SpanData is the immutable record of one finished span.
type SpanData struct {
	ID     uint64
	Parent uint64 // 0 for roots
	Root   uint64 // id of the tree's root span (== ID for roots)
	Name   string

	StartWall, EndWall time.Time
	StartVirt, EndVirt time.Time

	Attrs []Attr
}

// Wall returns the span's wall-clock duration.
func (d SpanData) Wall() time.Duration { return d.EndWall.Sub(d.StartWall) }

// Virt returns the span's virtual-time duration. For spans without a
// virtual clock this equals Wall.
func (d SpanData) Virt() time.Duration { return d.EndVirt.Sub(d.StartVirt) }

// Tracer collects spans into a bounded ring buffer. All methods are safe
// for concurrent use; a disabled tracer hands out nil spans, and every
// Span method is nil-safe, so instrumentation sites never branch.
type Tracer struct {
	enabled atomic.Bool
	nextID  atomic.Uint64

	mu      sync.Mutex
	size    int        // the ring's capacity
	ring    []SpanData // circular buffer of finished spans, nil until one finishes
	next    int        // ring write cursor
	filled  bool       // ring has wrapped at least once
	total   uint64     // finished spans ever recorded
	dropped uint64     // finished spans evicted by the ring
}

// NewTracer returns an enabled tracer retaining up to capacity finished
// spans (oldest evicted first). Capacity below 1 uses
// DefaultSpanCapacity. The ring is allocated when the first span
// finishes, so a tracer that never records one, like the disabled
// default tracer, holds none (2.6 MB at the default capacity).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultSpanCapacity
	}
	t := &Tracer{size: capacity}
	t.enabled.Store(true)
	return t
}

// SetEnabled switches span collection on this tracer.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether the tracer is collecting.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Span is one in-flight operation. A nil *Span is the disabled
// tracer's no-op span: every method accepts it.
type Span struct {
	tracer *Tracer
	virt   func() time.Time // nil means wall clock

	mu   sync.Mutex
	data SpanData
	done bool
}

// Start begins a root span. Returns nil when the tracer is disabled.
// The span keeps a copy of attrs, never the caller's slice.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	now := time.Now()
	id := t.nextID.Add(1)
	s := &Span{tracer: t}
	s.data = SpanData{
		ID: id, Root: id, Name: name,
		StartWall: now, StartVirt: now,
		Attrs: append([]Attr(nil), attrs...),
	}
	return s
}

// Child begins a span nested under s, inheriting its virtual clock and
// keeping a copy of attrs. Child of a nil span is nil.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	if !t.enabled.Load() {
		return nil
	}
	now := time.Now()
	c := &Span{tracer: t, virt: s.virt}
	vnow := now
	if s.virt != nil {
		vnow = s.virt()
	}
	s.mu.Lock()
	parent, root := s.data.ID, s.data.Root
	s.mu.Unlock()
	c.data = SpanData{
		ID: t.nextID.Add(1), Parent: parent, Root: root, Name: name,
		StartWall: now, StartVirt: vnow,
		Attrs: append([]Attr(nil), attrs...),
	}
	return c
}

// ChildOf nests a span under parent, or starts a root span on the
// default tracer when parent is nil. It lets library code (CRIA, replay)
// take an optional parent span without caring whether one was supplied.
func ChildOf(parent *Span, name string, attrs ...Attr) *Span {
	if parent != nil {
		return parent.Child(name, attrs...)
	}
	return T().Start(name, attrs...)
}

// SetVirtualClock sets the span's virtual time source and re-stamps its
// virtual start. Children started afterwards inherit the clock. Call it
// immediately after Start.
func (s *Span) SetVirtualClock(now func() time.Time) *Span {
	if s == nil || now == nil {
		return s
	}
	s.mu.Lock()
	s.virt = now
	s.data.StartVirt = now()
	s.mu.Unlock()
	return s
}

// Attr appends attributes to the span.
func (s *Span) Attr(attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.done {
		s.data.Attrs = append(s.data.Attrs, attrs...)
	}
	s.mu.Unlock()
	return s
}

// End finishes the span, stamping both time axes and committing it to
// the tracer's ring. End is idempotent; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.data.EndWall = now
	if s.virt != nil {
		s.data.EndVirt = s.virt()
	} else {
		s.data.EndVirt = now
	}
	data := s.data
	s.mu.Unlock()
	s.tracer.commit(data)
}

// VirtDuration returns the span's virtual elapsed time so far (or total,
// if ended). Zero for nil spans.
func (s *Span) VirtDuration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.data.EndVirt.Sub(s.data.StartVirt)
	}
	if s.virt != nil {
		return s.virt().Sub(s.data.StartVirt)
	}
	return time.Since(s.data.StartVirt)
}

func (t *Tracer) commit(d SpanData) {
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]SpanData, t.size)
	}
	if t.filled {
		t.dropped++
	}
	t.ring[t.next] = d
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.total++
	t.mu.Unlock()
}

// Snapshot returns the retained finished spans ordered by virtual start
// time (ties broken by id, which is allocation order).
func (t *Tracer) Snapshot() []SpanData {
	t.mu.Lock()
	var out []SpanData
	if t.filled {
		out = make([]SpanData, 0, len(t.ring))
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring[:t.next]...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].StartVirt.Equal(out[j].StartVirt) {
			return out[i].StartVirt.Before(out[j].StartVirt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Stats reports how many spans finished over the tracer's lifetime and
// how many the bounded ring evicted.
func (t *Tracer) Stats() (total, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.dropped
}

// Reset discards all retained spans and zeroes the lifetime counters.
func (t *Tracer) Reset() {
	t.mu.Lock()
	for i := range t.ring {
		t.ring[i] = SpanData{}
	}
	t.next = 0
	t.filled = false
	t.total = 0
	t.dropped = 0
	t.mu.Unlock()
}
