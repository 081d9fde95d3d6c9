package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func buildSampleSpans() []SpanData {
	tr := NewTracer(16)
	virtNow := time.Date(2015, 4, 21, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return virtNow }
	root := tr.Start("migrate", String("pkg", "com.example")).SetVirtualClock(clock)
	prep := root.Child("stage.preparation")
	virtNow = virtNow.Add(750 * time.Millisecond)
	prep.End()
	xfer := root.Child("stage.transfer", Int64("bytes", 1<<20))
	virtNow = virtNow.Add(9 * time.Second)
	xfer.End()
	root.End()
	return tr.Snapshot()
}

func TestChromeTraceIsValidAndVirtualSized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, buildSampleSpans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var xferDur float64
	var sawMeta bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			if ev["name"] == "stage.transfer" {
				xferDur = ev["dur"].(float64)
				if args, ok := ev["args"].(map[string]any); !ok || args["bytes"].(float64) != 1<<20 {
					t.Errorf("transfer args = %v", ev["args"])
				}
			}
		case "M":
			sawMeta = true
		}
	}
	// dur is microseconds on the virtual axis: 9s = 9e6µs, not host wall
	// time (which is ~0 for this synthetic trace).
	if xferDur != 9e6 {
		t.Errorf("transfer dur = %v µs, want 9e6 (virtual time)", xferDur)
	}
	if !sawMeta {
		t.Errorf("no thread_name metadata event")
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty trace is not valid JSON: %s", buf.String())
	}
}
