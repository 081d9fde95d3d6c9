package migration_test

import (
	"testing"
	"time"

	"flux/internal/android"
	"flux/internal/device"
	"flux/internal/migration"
	"flux/internal/obs"
	"flux/internal/pairing"
)

// newWorldProfiles is newWorld with configurable device profiles, so the
// equivalence suite can cover the Figure 13 device pairs instead of the
// fixed Nexus 4 → Nexus 7 (2013) pair.
func newWorldProfiles(t *testing.T, s android.AppSpec, homeP, guestP device.Profile) *world {
	t.Helper()
	home, err := device.New(homeP)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := device.New(guestP)
	if err != nil {
		t.Fatal(err)
	}
	install(t, home, s)
	if _, err := pairing.Pair(home, guest, []string{s.Package}); err != nil {
		t.Fatalf("Pair: %v", err)
	}
	app, err := home.Runtime.Launch(s)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return &world{home: home, guest: guest, app: app}
}

// runPair builds a fresh world (migration is destructive, so sequential and
// pipelined runs each get their own), runs the standard workload, and
// migrates with the given options.
func runPair(t *testing.T, homeP, guestP device.Profile, opts migration.Options) *migration.Report {
	t.Helper()
	w := newWorldProfiles(t, spec(), homeP, guestP)
	w.runWorkload(t)
	rep, err := migration.New(w.home, w.guest, opts).Migrate(pkg)
	if err != nil {
		t.Fatalf("Migrate(%+v): %v", opts, err)
	}
	return rep
}

// assertSameBytes checks the tentpole's core invariant: pipelining changes
// WHEN bytes move, never WHICH bytes move.
func assertSameBytes(t *testing.T, seq, pip *migration.Report) {
	t.Helper()
	type field struct {
		name     string
		seq, pip int64
	}
	for _, f := range []field{
		{"TransferredBytes", seq.TransferredBytes, pip.TransferredBytes},
		{"ImageBytes", seq.ImageBytes, pip.ImageBytes},
		{"CompressedImageBytes", seq.CompressedImageBytes, pip.CompressedImageBytes},
		{"RecordLogBytes", seq.RecordLogBytes, pip.RecordLogBytes},
		{"DataDeltaBytes", seq.DataDeltaBytes, pip.DataDeltaBytes},
		{"APKDeltaBytes", seq.APKDeltaBytes, pip.APKDeltaBytes},
		{"PostCopyResidualBytes", seq.PostCopyResidualBytes, pip.PostCopyResidualBytes},
	} {
		if f.seq != f.pip {
			t.Errorf("%s: sequential %d != pipelined %d", f.name, f.seq, f.pip)
		}
	}
}

// TestPipelineEquivalenceAcrossPairs runs the same migration sequentially
// and pipelined over the Figure 13 device pairs and pins three contracts:
// identical byte accounting, identical restored service state, and
// Report.PipelineSavings equal — exactly, not approximately — to the
// measured sequential-minus-pipelined user-perceived delta.
func TestPipelineEquivalenceAcrossPairs(t *testing.T) {
	pairs := []struct {
		name        string
		home, guest func(string) device.Profile
	}{
		{"n7'13-to-n7'13", device.Nexus7_2013, device.Nexus7_2013},
		{"n4-to-n7'13", device.Nexus4, device.Nexus7_2013},
		{"n7'12-to-n7'13", device.Nexus7_2012, device.Nexus7_2013},
		{"n7'12-to-n4", device.Nexus7_2012, device.Nexus4},
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			homeP, guestP := pc.home("home"), pc.guest("guest")
			seq := runPair(t, homeP, guestP, migration.Options{})
			pip := runPair(t, homeP, guestP, migration.Options{Pipelined: true})

			assertSameBytes(t, seq, pip)
			if !seq.StateConsistent() || !pip.StateConsistent() {
				t.Fatal("service state diverged across migration")
			}
			if len(seq.StateAfter) != len(pip.StateAfter) {
				t.Fatalf("restored state differs: %d vs %d entries", len(seq.StateAfter), len(pip.StateAfter))
			}
			for k, v := range seq.StateAfter {
				if pip.StateAfter[k] != v {
					t.Errorf("restored state %q: sequential %v, pipelined %v", k, v, pip.StateAfter[k])
				}
			}

			if seq.PipelineChunks != 0 || seq.PipelineSavings != 0 {
				t.Errorf("sequential report carries pipeline fields: %d chunks, %v savings",
					seq.PipelineChunks, seq.PipelineSavings)
			}
			if pip.PipelineChunks < 2 {
				t.Errorf("pipelined run streamed %d chunks, want ≥ 2", pip.PipelineChunks)
			}
			su, pu := seq.Timings.UserPerceived(), pip.Timings.UserPerceived()
			if pu >= su {
				t.Errorf("pipelining did not help: sequential %v, pipelined %v", su, pu)
			}
			if got := su - pu; got != pip.PipelineSavings {
				t.Errorf("measured delta %v != reported PipelineSavings %v", got, pip.PipelineSavings)
			}
		})
	}
}

// TestPipelineChunkSizeProperty sweeps chunk sizes — including a degenerate
// 1-byte request, which must clamp to MinPipelineChunkBytes — and checks
// that for EVERY size the byte accounting matches the sequential run and
// the savings equal the measured delta exactly. Chunk counts must be
// non-increasing as chunks grow.
func TestPipelineChunkSizeProperty(t *testing.T) {
	homeP, guestP := device.Nexus4("home"), device.Nexus7_2013("guest")
	seq := runPair(t, homeP, guestP, migration.Options{})

	sizes := []int64{1, 1 << 10, migration.MinPipelineChunkBytes, 256 << 10, 1 << 20, 1 << 30}
	prevChunks := -1
	var clampChunks, minChunks int
	for _, cb := range sizes {
		pip := runPair(t, homeP, guestP, migration.Options{Pipelined: true, PipelineChunkBytes: cb})
		assertSameBytes(t, seq, pip)
		if got := seq.Timings.UserPerceived() - pip.Timings.UserPerceived(); got != pip.PipelineSavings {
			t.Errorf("chunk=%d: measured delta %v != PipelineSavings %v", cb, got, pip.PipelineSavings)
		}
		if pip.PipelineChunks < 1 {
			t.Errorf("chunk=%d: no chunks streamed", cb)
		}
		if prevChunks >= 0 && pip.PipelineChunks > prevChunks {
			t.Errorf("chunk=%d: %d chunks, more than %d at the smaller size", cb, pip.PipelineChunks, prevChunks)
		}
		prevChunks = pip.PipelineChunks
		switch cb {
		case 1:
			clampChunks = pip.PipelineChunks
		case migration.MinPipelineChunkBytes:
			minChunks = pip.PipelineChunks
		}
	}
	if clampChunks != minChunks {
		t.Errorf("1-byte request produced %d chunks, MinPipelineChunkBytes produced %d — clamp broken",
			clampChunks, minChunks)
	}
}

// TestPipelinePostCopyCompose: Pipelined+PostCopy composes — the stream
// still ships every byte, so the byte accounting, including the residual,
// matches the sequential PostCopy run.
func TestPipelinePostCopyCompose(t *testing.T) {
	homeP, guestP := device.Nexus4("home"), device.Nexus7_2013("guest")
	seq := runPair(t, homeP, guestP, migration.Options{PostCopy: true})
	pip := runPair(t, homeP, guestP, migration.Options{Pipelined: true, PostCopy: true})

	assertSameBytes(t, seq, pip)
	if pip.PostCopyResidualBytes <= 0 {
		t.Error("PostCopy run reported no residual")
	}
	if !pip.StateConsistent() {
		t.Error("pipelined post-copy migration lost service state")
	}
	if pip.PipelineChunks < 2 {
		t.Errorf("pipelined post-copy streamed %d chunks", pip.PipelineChunks)
	}
}

// TestPipelineSkipCompression: the compression ablation composes with the
// pipeline — raw bytes on the wire, metadata framing dropped — and keeps
// both the byte identity and the exact-savings contract.
func TestPipelineSkipCompression(t *testing.T) {
	homeP, guestP := device.Nexus4("home"), device.Nexus7_2013("guest")
	seq := runPair(t, homeP, guestP, migration.Options{SkipCompression: true})
	pip := runPair(t, homeP, guestP, migration.Options{SkipCompression: true, Pipelined: true})

	assertSameBytes(t, seq, pip)
	if got := seq.Timings.UserPerceived() - pip.Timings.UserPerceived(); got != pip.PipelineSavings {
		t.Errorf("measured delta %v != PipelineSavings %v", got, pip.PipelineSavings)
	}
	// Sanity: raw shipping really is bigger than the compressed default.
	comp := runPair(t, homeP, guestP, migration.Options{Pipelined: true})
	if seq.TransferredBytes <= comp.TransferredBytes {
		t.Errorf("SkipCompression moved %d bytes, compressed %d", seq.TransferredBytes, comp.TransferredBytes)
	}
}

// TestPipelinedSpansAgreeWithTimings extends the PR 2 invariant to the
// streamed path: stage span virtual durations still equal the Timings
// entries exactly, and the transfer stage carries one "pipeline.chunk"
// instant span per streamed chunk.
func TestPipelinedSpansAgreeWithTimings(t *testing.T) {
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	obs.Reset()

	w := newWorld(t, spec())
	w.runWorkload(t)
	rep, err := migration.New(w.home, w.guest, migration.Options{Pipelined: true}).Migrate(pkg)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}

	spans := obs.T().Snapshot()
	byStage := make(map[migration.Stage]time.Duration)
	var transferID uint64
	chunkSpans := 0
	var root *obs.SpanData
	for i := range spans {
		s := spans[i]
		if s.Name == migration.SpanMigrate {
			root = &spans[i]
		}
		if st, ok := migration.StageBySpanName(s.Name); ok {
			byStage[st] += s.Virt()
			if st == migration.StageTransfer {
				transferID = s.ID
			}
		}
	}
	for _, s := range spans {
		if s.Name == migration.SpanPipelineChunk {
			chunkSpans++
			if s.Parent != transferID {
				t.Errorf("chunk span parented to %d, want transfer span %d", s.Parent, transferID)
			}
		}
	}
	if root == nil {
		t.Fatal("no migrate span recorded")
	}
	for _, st := range migration.Stages() {
		if got, want := byStage[st], rep.Timings[st]; got != want {
			t.Errorf("stage %s: span virtual duration %v != Timings %v", st, got, want)
		}
	}
	if got, want := root.Virt(), rep.Timings.Total(); got != want {
		t.Errorf("migrate span virtual duration %v != Timings.Total %v", got, want)
	}
	if chunkSpans != rep.PipelineChunks {
		t.Errorf("recorded %d pipeline.chunk spans, Report says %d chunks", chunkSpans, rep.PipelineChunks)
	}
}
