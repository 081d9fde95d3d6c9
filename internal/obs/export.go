package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (the subset chrome://tracing and Perfetto render).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serializes spans as Chrome trace-event JSON, loadable
// in chrome://tracing and Perfetto. Each span tree (one migration, one
// trace run) becomes a thread row (tid = root span id); within a tree,
// events are positioned and sized on the VIRTUAL time axis, so stage
// widths reproduce the paper's Figure 13 shape rather than host wall
// time. Trees are offset against each other by their wall start, so a
// parallel evaluation matrix lays out as it actually ran.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	if len(spans) == 0 {
		return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"})
	}
	// Index root spans so children can be positioned relative to their
	// tree's virtual origin.
	rootVirt := make(map[uint64]time.Time)
	rootWall := make(map[uint64]time.Time)
	rootName := make(map[uint64]string)
	minWall := spans[0].StartWall
	for _, s := range spans {
		if s.StartWall.Before(minWall) {
			minWall = s.StartWall
		}
		if s.Parent == 0 {
			rootVirt[s.ID] = s.StartVirt
			rootWall[s.ID] = s.StartWall
			rootName[s.ID] = s.Name
		}
	}
	trace := chromeTrace{DisplayTimeUnit: "ms"}
	seenTID := make(map[uint64]bool)
	for _, s := range spans {
		base, ok := rootVirt[s.Root]
		wallBase, wok := rootWall[s.Root]
		if !ok || !wok {
			// Root evicted from the ring: anchor the span on itself.
			base, wallBase = s.StartVirt, s.StartWall
		}
		ts := float64(wallBase.Sub(minWall).Microseconds()) +
			float64(s.StartVirt.Sub(base).Microseconds())
		ev := chromeEvent{
			Name:  s.Name,
			Cat:   "flux",
			Phase: "X",
			TS:    ts,
			Dur:   float64(s.Virt().Microseconds()),
			PID:   1,
			TID:   s.Root,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value()
			}
		}
		trace.TraceEvents = append(trace.TraceEvents, ev)
		if !seenTID[s.Root] {
			seenTID[s.Root] = true
			name := rootName[s.Root]
			if name == "" {
				name = fmt.Sprintf("tree %d", s.Root)
			}
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name:  "thread_name",
				Phase: "M",
				PID:   1,
				TID:   s.Root,
				Args:  map[string]any{"name": fmt.Sprintf("%s #%d", name, s.Root)},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(trace)
}

// WriteChromeTraceFile dumps the tracer's retained spans to path.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, t.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SortTree orders spans depth-first by tree: each root followed by its
// descendants in virtual start order — the order a flamegraph-style
// text rendering wants. Spans whose parent is missing are treated as
// roots.
func SortTree(spans []SpanData) []SpanData {
	children := make(map[uint64][]SpanData)
	byID := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	var roots []SpanData
	for _, s := range spans {
		if s.Parent == 0 || !byID[s.Parent] {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	order := func(list []SpanData) {
		sort.SliceStable(list, func(i, j int) bool {
			if !list[i].StartVirt.Equal(list[j].StartVirt) {
				return list[i].StartVirt.Before(list[j].StartVirt)
			}
			return list[i].ID < list[j].ID
		})
	}
	order(roots)
	//fluxvet:allow maprange — sorts each child slice in place; per-key mutation commutes across keys
	for _, c := range children {
		order(c)
	}
	out := make([]SpanData, 0, len(spans))
	var walk func(s SpanData)
	walk = func(s SpanData) {
		out = append(out, s)
		for _, c := range children[s.ID] {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// Depth returns each span's nesting depth (roots at 0) keyed by span id,
// for indentation in text renderings.
func Depth(spans []SpanData) map[uint64]int {
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	depth := make(map[uint64]int, len(spans))
	var depthOf func(id uint64) int
	depthOf = func(id uint64) int {
		if d, ok := depth[id]; ok {
			return d
		}
		p := parent[id]
		if p == 0 {
			depth[id] = 0
			return 0
		}
		if _, known := parent[p]; !known {
			depth[id] = 0
			return 0
		}
		// Guard against cycles (cannot happen with well-formed spans).
		depth[id] = -1
		d := depthOf(p) + 1
		depth[id] = d
		return d
	}
	for _, s := range spans {
		depthOf(s.ID)
	}
	return depth
}
