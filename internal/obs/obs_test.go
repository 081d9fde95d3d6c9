package obs

import (
	"strings"
	"testing"
	"time"
)

func TestDisabledTracerHandsOutNilSpans(t *testing.T) {
	tr := NewTracer(8)
	tr.SetEnabled(false)
	s := tr.Start("x")
	if s != nil {
		t.Fatalf("disabled tracer returned non-nil span")
	}
	// Every method must be nil-safe.
	s.Attr(String("k", "v")).SetVirtualClock(time.Now).End()
	if c := s.Child("child"); c != nil {
		t.Fatalf("nil span produced non-nil child")
	}
	if d := s.VirtDuration(); d != 0 {
		t.Fatalf("nil span virt duration = %v", d)
	}
	if total, _ := tr.Stats(); total != 0 {
		t.Fatalf("disabled tracer recorded %d spans", total)
	}
}

// probePkg is a package variable so its conversion to an interface
// cannot be folded into static data at compile time.
var probePkg = "com.example"

// TestDisabledSpanAttrsDoNotAllocate: with the tracer off, passing
// attributes to a nil span's Attr and Child and to ChildOf(nil, …)
// allocates nothing, whatever values they carry, so untraced code pays
// nothing for the spans it would have emitted.
func TestDisabledSpanAttrsDoNotAllocate(t *testing.T) {
	prev := Enabled()
	SetEnabled(false)
	defer SetEnabled(prev)
	var sp *Span
	n := int64(1 << 40)
	allocs := testing.AllocsPerRun(100, func() {
		n++
		sp.Attr(Int64("bytes", n), Int64("entries", n+1), String("pkg", probePkg))
		sp.Child("stage", Int64("bytes", n), Float64("mbps", float64(n)/3), Bool("ok", n%2 == 0)).End()
		ChildOf(nil, "root", Int64("bytes", n), String("pkg", probePkg)).End()
	})
	if allocs != 0 {
		t.Errorf("attributes on disabled spans allocated %v times per run, want 0", allocs)
	}
}

func TestSpanHierarchyAndClocks(t *testing.T) {
	tr := NewTracer(16)
	virtNow := time.Date(2015, 4, 21, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return virtNow }

	root := tr.Start("migrate", String("pkg", "com.example")).SetVirtualClock(clock)
	child := root.Child("stage", Int64("bytes", 42))
	virtNow = virtNow.Add(3 * time.Second)
	child.End()
	virtNow = virtNow.Add(1 * time.Second)
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(spans))
	}
	// Snapshot is ordered by virtual start: root first (same instant, lower id).
	r, c := spans[0], spans[1]
	if r.Name != "migrate" || c.Name != "stage" {
		t.Fatalf("order = %s, %s", r.Name, c.Name)
	}
	if c.Parent != r.ID || c.Root != r.ID || r.Parent != 0 {
		t.Fatalf("hierarchy wrong: root=%+v child=%+v", r, c)
	}
	if got := c.Virt(); got != 3*time.Second {
		t.Errorf("child virtual duration = %v, want 3s (inherited clock)", got)
	}
	if got := r.Virt(); got != 4*time.Second {
		t.Errorf("root virtual duration = %v, want 4s", got)
	}
	if c.Wall() > time.Second {
		t.Errorf("child wall duration = %v, absurd for this test", c.Wall())
	}
	if len(r.Attrs) != 1 || r.Attrs[0].Key != "pkg" {
		t.Errorf("root attrs = %+v", r.Attrs)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	tr := NewTracer(8)
	s := tr.Start("once")
	s.End()
	s.End()
	if total, _ := tr.Stats(); total != 1 {
		t.Fatalf("double End recorded %d spans, want 1", total)
	}
}

func TestRingBoundsMemory(t *testing.T) {
	tr := NewTracer(4)
	if tr.ring != nil {
		t.Fatal("a tracer holds a ring before any span finished")
	}
	for i := 0; i < 10; i++ {
		tr.Start("s").End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	total, dropped := tr.Stats()
	if total != 10 || dropped != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", total, dropped)
	}
	// The survivors are the newest four.
	for _, s := range spans {
		if s.ID <= 6 {
			t.Errorf("ring retained old span id %d", s.ID)
		}
	}
}

func TestChildOfNilStartsRoot(t *testing.T) {
	SetEnabled(true)
	defer func() {
		SetEnabled(false)
		Reset()
	}()
	s := ChildOf(nil, "orphan")
	if s == nil {
		t.Fatalf("ChildOf(nil) = nil with telemetry enabled")
	}
	s.End()
	spans := T().Snapshot()
	if len(spans) != 1 || spans[0].Parent != 0 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestSortTreeAndDepth(t *testing.T) {
	tr := NewTracer(16)
	virtNow := time.Unix(0, 0)
	clock := func() time.Time { return virtNow }
	root := tr.Start("root").SetVirtualClock(clock)
	a := root.Child("a")
	virtNow = virtNow.Add(time.Second)
	aa := a.Child("aa")
	virtNow = virtNow.Add(time.Second)
	aa.End()
	a.End()
	b := root.Child("b")
	virtNow = virtNow.Add(time.Second)
	b.End()
	root.End()

	ordered := SortTree(tr.Snapshot())
	var names []string
	for _, s := range ordered {
		names = append(names, s.Name)
	}
	want := "root a aa b"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("tree order = %q, want %q", got, want)
	}
	depth := Depth(ordered)
	for _, s := range ordered {
		wantDepth := map[string]int{"root": 0, "a": 1, "aa": 2, "b": 1}[s.Name]
		if depth[s.ID] != wantDepth {
			t.Errorf("depth[%s] = %d, want %d", s.Name, depth[s.ID], wantDepth)
		}
	}
}
