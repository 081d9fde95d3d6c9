package obs

// Golden-file test for the Chrome trace exporter: a fixed synthetic span
// tree renders byte-identically on every run (no wall-clock leaks into
// the output) and matches the golden committed under testdata/.
// Regenerate with:
//
//	go test ./internal/obs -run TestGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenSpans builds the fixture span tree from literals — every wall
// and virtual timestamp pinned, so the exporters have no source of
// nondeterminism to leak.
func goldenSpans() []SpanData {
	wall := time.Date(2015, 4, 21, 9, 0, 0, 0, time.UTC)
	virt := time.Date(2015, 4, 21, 10, 0, 0, 0, time.UTC)
	return []SpanData{
		{
			ID: 1, Root: 1, Name: "migrate",
			StartWall: wall, EndWall: wall.Add(3 * time.Millisecond),
			StartVirt: virt, EndVirt: virt.Add(10 * time.Second),
			Attrs: []Attr{String("pkg", "com.example"), Bool("pipelined", false)},
		},
		{
			ID: 2, Parent: 1, Root: 1, Name: "stage.preparation",
			StartWall: wall, EndWall: wall.Add(time.Millisecond),
			StartVirt: virt, EndVirt: virt.Add(750 * time.Millisecond),
		},
		{
			ID: 3, Parent: 1, Root: 1, Name: "stage.transfer",
			StartWall: wall.Add(time.Millisecond), EndWall: wall.Add(2 * time.Millisecond),
			StartVirt: virt.Add(750 * time.Millisecond), EndVirt: virt.Add(9750 * time.Millisecond),
			Attrs: []Attr{Int64("bytes", 1<<20), Float64("mbps", 54.0)},
		},
	}
}

func checkGolden(t *testing.T, name string, render func() []byte) {
	t.Helper()
	first := render()
	second := render()
	if !bytes.Equal(first, second) {
		t.Fatalf("%s: two renders of the same input differ", name)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create)", name, err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("%s: output drifted from golden; rerun with -update and review the diff\n--- got ---\n%s\n--- want ---\n%s",
			name, first, want)
	}
}

func TestGoldenChromeTrace(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, goldenSpans()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	out := render()
	if !json.Valid(out) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", out)
	}
	checkGolden(t, "chrome_trace.golden.json", render)
}
