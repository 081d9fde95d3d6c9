// Streaming migration pipeline (opt-in via Options.Pipelined).
//
// The paper's §4 analysis shows transfer dominates migration time, and the
// user-perceived window is Transfer+Restore+Reintegration. The sequential
// model starts wiring bytes only after the whole image is checkpointed and
// compressed, and starts restoring only after the last byte lands. The
// pipelined model streams the image as ordered chunks (cria.Image.Chunks):
// chunk i transfers while chunk i+1 compresses while chunk i+2 is being
// checkpointed, and the guest restores chunk i-1 as it lands — turning the
// critical path from a sum of stages into a pipeline makespan. Not a single
// transferred byte changes: the chunk partition reproduces the sequential
// byte accounting exactly, so pipelined and sequential reports carry
// identical size fields.
//
// The five Figure 13 stages remain a partition of the virtual timeline —
// stage spans still advance the clock inside themselves, so span virtual
// durations equal the Timings entries exactly (the PR 2 invariant):
//
//	Checkpoint  = until the last chunk is compressed
//	Transfer    = until the last chunk leaves the wire
//	Restore     = until the last chunk is restored
//	Reintegration = the replay/foreground tail extending past restore
//
// The per-chunk lanes (checkpoint/compress/transfer/restore intervals on
// the shared timeline) are exported as instant "pipeline.chunk" spans with
// offset attributes, which cmd/fluxstat renders as a gantt.
package migration

import (
	"time"

	"flux/internal/cria"
	"flux/internal/netsim"
	"flux/internal/obs"
)

// Virtual-time cost model shared by the sequential and pipelined paths.
// The sequential stage formulas are unchanged from the seed; the pipeline
// splits the checkpoint stage's combined rate into two equal half-rate
// sub-stages (1/ckptPipeRate + 1/compPipeRate = 1/ckptRate), so a fully
// serialized pipeline degenerates to the sequential checkpoint duration.
const (
	prepFixed            = 60 * time.Millisecond
	prepRate       int64 = 400 << 20
	ckptFixed            = 90 * time.Millisecond
	ckptRate       int64 = 160 << 20
	rstrFixed            = 450 * time.Millisecond
	rstrRate       int64 = 180 << 20
	reintFixed           = 380 * time.Millisecond
	reintTexRate   int64 = 250 << 20
	replayPerEntry       = 5 * time.Millisecond

	// ckptPipeRate / compPipeRate are the checkpoint and compress
	// sub-stage rates of the streaming pipeline.
	ckptPipeRate int64 = 320 << 20
	compPipeRate int64 = 320 << 20
)

const (
	// DefaultPipelineChunkBytes is the raw chunk size the streaming
	// pipeline uses when Options.PipelineChunkBytes is zero.
	DefaultPipelineChunkBytes int64 = 256 << 10
	// MinPipelineChunkBytes floors the chunk size: below it, per-chunk
	// framing overhead (netsim.StreamChunkOverhead) would swamp the
	// overlap win, so degenerate requests (1-byte chunks) are clamped.
	MinPipelineChunkBytes int64 = 64 << 10
	// DefaultPipelineWorkingSet is the fraction of the memory payload
	// that must be resident on the guest before adaptive replay starts
	// (the paper's "post copy supplemented with adaptive pre-paging"),
	// and the fraction a sequential PostCopy run ships synchronously.
	DefaultPipelineWorkingSet = 0.3
)

// SpanPipelineChunk is the instant span emitted per wire chunk under the
// transfer stage span; its attributes carry the chunk's lane offsets.
const SpanPipelineChunk = "pipeline.chunk"

// chunkLane is one chunk's schedule on the shared virtual timeline. All
// offsets are relative to the start of the checkpoint stage.
type chunkLane struct {
	Chunk cria.Chunk
	// Wire is the chunk's actual on-the-wire size for this run (raw
	// under SkipCompression; the negotiated ship size under delta
	// migration — rolling literals, or zero for cache hits).
	Wire int64
	// Cached marks a delta-negotiation cache hit: the chunk skips
	// compression and the wire entirely (its transfer lane is empty) but
	// still holds its slot in the serial restore order.
	Cached             bool
	CkptStart, CkptEnd time.Duration
	CompStart, CompEnd time.Duration
	XferStart, XferEnd time.Duration
	RstrStart, RstrEnd time.Duration
}

// pipelinePlan is the virtual-time schedule of one streamed migration.
type pipelinePlan struct {
	Lanes []chunkLane

	// Stage boundaries (offsets from checkpoint-stage start).
	CompDone time.Duration // last chunk compressed → checkpoint stage end
	XferDone time.Duration // last chunk off the wire → transfer stage end
	RstrDone time.Duration // last chunk restored → restore stage end

	// WireStall is wire idle time spent waiting for compression;
	// RstrStall is guest idle time waiting for the wire.
	WireStall time.Duration
	RstrStall time.Duration

	// wsIndex is the lane whose restore completes the working set
	// (metadata + record log + the leading DefaultPipelineWorkingSet
	// fraction of the memory payload); adaptive replay may begin once it
	// lands.
	wsIndex int

	// shipped caches shippedWires: the transfer stage consults the
	// shipped set up to twice per migration (stream scheduling, fault
	// recovery), and recomputing it allocated a slice each time ×
	// thousands of migrations under the fleet engine.
	// Invalidated (nil) whenever Lanes changes.
	shipped []int64
	// wireDur is the retained chunk-schedule buffer scheduleStream
	// fills via AppendChunkTimes.
	wireDur []time.Duration
}

// planPipeline computes the home-side checkpoint→compress schedule for the
// image chunks. Wire and restore lanes are scheduled later (scheduleStream)
// once the transfer stage knows the delta sizes. dp (nil without a chunk
// cache) is the delta negotiation's verdict: cache-hit lanes ship nothing
// and skip compression, rolling lanes compress only their literal
// fraction. Checkpointing is unaffected — the full image is always
// captured (rollback safety).
func planPipeline(chunks []cria.Chunk, homeCPU float64, skipCompression bool, dp *deltaPlan) *pipelinePlan {
	// +1: scheduleStream may prepend the synthetic delta lane in place.
	p := &pipelinePlan{Lanes: make([]chunkLane, 0, len(chunks)+1)}
	var ckptFree, compFree time.Duration
	for i, c := range chunks {
		lane := chunkLane{Chunk: c, Wire: effectiveWire(c, skipCompression)}
		compRaw := c.Raw
		if dp != nil {
			cp := dp.chunks[i]
			lane.Wire = cp.ship
			lane.Cached = cp.fate == fateHit
			compRaw = cp.compRaw
		}
		lane.CkptStart = ckptFree
		ckptWork := cpuWork(c.Raw, ckptPipeRate, homeCPU)
		if i == 0 {
			ckptWork += ckptFixed // per-checkpoint setup, paid once up front
		}
		lane.CkptEnd = lane.CkptStart + ckptWork
		ckptFree = lane.CkptEnd

		lane.CompStart = maxDur(lane.CkptEnd, compFree)
		lane.CompEnd = lane.CompStart + cpuWork(compRaw, compPipeRate, homeCPU)
		compFree = lane.CompEnd

		p.Lanes = append(p.Lanes, lane)
	}
	p.CompDone = compFree
	return p
}

// shippedWires returns the wire sizes of the lanes that actually hit the
// link, in stream order — cache-hit lanes take no stream slot. The
// result is memoized (callers must not mutate it); Lanes edits must
// reset p.shipped.
func (p *pipelinePlan) shippedWires() []int64 {
	if p.shipped == nil {
		out := make([]int64, 0, len(p.Lanes))
		for i := range p.Lanes {
			if p.Lanes[i].Cached {
				continue
			}
			out = append(out, p.Lanes[i].Wire)
		}
		p.shipped = out
	}
	return p.shipped
}

// cpuWork models CPU-bound work over n bytes at rate bytes/sec on a 1.0
// device, scaled by the device's CPU factor.
func cpuWork(n, rate int64, cpuFactor float64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / (float64(rate) * cpuFactor) * float64(time.Second))
}

// seqRestore is the stop-and-copy restore stage: the wrapper standup
// plus restoring the whole image on the guest.
func seqRestore(imageBytes int64, guestCPU float64) time.Duration {
	return rstrFixed + cpuWork(imageBytes, rstrRate, guestCPU)
}

// seqReint is the stop-and-copy reintegration stage: the replay engine's
// fixed cost, the texture rebuild, and one replay slot per log entry.
func seqReint(texBytes int64, entries int, guestCPU float64) time.Duration {
	return reintFixed + cpuWork(texBytes, reintTexRate, guestCPU) + time.Duration(entries)*replayPerEntry
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// scheduleStream lays the wire and restore lanes over the compression
// schedule. deltaWire (APK + data-directory delta) needs no checkpointing,
// so it streams first — during the checkpoint fill — as a synthetic lane.
// The restore of the leading DefaultPipelineWorkingSet payload fraction
// gates adaptive replay. negDur (zero without a chunk cache) is the delta
// negotiation's round trip: it occupies the wire from the start of the
// checkpoint stage, so the first shipped chunk cannot leave before it
// completes. Cache-hit lanes take no wire slot — they become available
// the moment negotiation confirms them — but keep their place in the
// serial restore order.
func (p *pipelinePlan) scheduleStream(deltaWire int64, link netsim.Link, guestCPU float64, negDur time.Duration) {
	if deltaWire > 0 {
		// In-place prepend: planPipeline reserved the extra slot, so
		// this shifts within the existing backing array.
		p.Lanes = append(p.Lanes, chunkLane{})
		copy(p.Lanes[1:], p.Lanes)
		p.Lanes[0] = chunkLane{
			Chunk: cria.Chunk{Index: -1, Kind: cria.ChunkDelta, Segment: -1, Raw: deltaWire},
			Wire:  deltaWire,
		}
		p.shipped = nil
	}
	p.wireDur = link.AppendChunkTimes(p.wireDur[:0], p.shippedWires())
	wireDur := p.wireDur

	// Working-set boundary over the memory payload.
	var payload int64
	for i := range p.Lanes {
		if p.Lanes[i].Chunk.Kind == cria.ChunkSegment {
			payload += p.Lanes[i].Chunk.Raw
		}
	}
	wsTarget := int64(float64(payload) * DefaultPipelineWorkingSet)

	var rstrFree time.Duration
	xferFree := negDur
	var seenImage bool
	var cumPayload int64
	p.wsIndex = len(p.Lanes) - 1
	wsFound := false
	wi := 0
	for i := range p.Lanes {
		lane := &p.Lanes[i]
		if lane.Cached {
			// Served from the guest's cache: no wire occupancy. Available
			// once the negotiation confirmed the hit.
			lane.XferStart = negDur
			lane.XferEnd = negDur
		} else {
			lane.XferStart = maxDur(xferFree, lane.CompEnd)
			p.WireStall += lane.XferStart - maxDur(xferFree, 0)
			lane.XferEnd = lane.XferStart + wireDur[wi]
			wi++
			xferFree = lane.XferEnd
		}

		// Restore: the wrapper process (fixed cost, unscaled like the
		// sequential model's) stands up on the first image chunk;
		// memory chunks pay the per-byte restore rate; delta and
		// record-log chunks restore for free (the log is parsed inside
		// the replay fixed cost).
		var work time.Duration
		if lane.Chunk.Kind != cria.ChunkDelta && !seenImage {
			seenImage = true
			work += rstrFixed
		}
		if lane.Chunk.Kind == cria.ChunkSegment {
			work += cpuWork(lane.Chunk.Raw, rstrRate, guestCPU)
			cumPayload += lane.Chunk.Raw
		}
		lane.RstrStart = maxDur(rstrFree, lane.XferEnd)
		p.RstrStall += lane.RstrStart - maxDur(rstrFree, 0)
		lane.RstrEnd = lane.RstrStart + work
		rstrFree = lane.RstrEnd

		if !wsFound && lane.Chunk.Kind == cria.ChunkSegment && cumPayload >= wsTarget {
			p.wsIndex = i
			wsFound = true
		}
	}
	if !wsFound && payload == 0 {
		// No memory payload: replay may start once everything restored.
		p.wsIndex = len(p.Lanes) - 1
	}
	p.XferDone = xferFree
	p.RstrDone = rstrFree
	// Stage boundaries must be monotone even for pathological inputs
	// (e.g. an empty image).
	if p.XferDone < p.CompDone {
		p.XferDone = p.CompDone
	}
	if p.RstrDone < p.XferDone {
		p.RstrDone = p.XferDone
	}
}

// reintTail returns the reintegration stage duration: the part of the
// replay/foreground work that extends past the last restored chunk.
// Replay (fixed engine cost + per-entry replay) starts as soon as the
// working set is resident; the foreground commit (texture rebuild) runs
// after both replay and full residency.
func (p *pipelinePlan) reintTail(entries int, texBytes int64, guestCPU float64) time.Duration {
	replayWork := reintFixed + time.Duration(entries)*replayPerEntry
	replayDone := p.Lanes[p.wsIndex].RstrEnd + replayWork
	fg := cpuWork(texBytes, reintTexRate, guestCPU)
	end := maxDur(p.RstrDone, replayDone) + fg
	return end - p.RstrDone
}

// UserPerceived is the pipelined user-visible window: everything past the
// checkpoint stage boundary.
func (p *pipelinePlan) userPerceived(reintTail time.Duration) time.Duration {
	return (p.RstrDone - p.CompDone) + reintTail
}

// sequentialUserPerceived is the counterfactual the savings are measured
// against: the seed's stop-and-copy model with the same inputs (no
// post-copy deferral), built from the formulas a sequential Migrate
// prices its stages with.
func sequentialUserPerceived(link netsim.Link, wire, imageBytes, texBytes int64, entries int, guestCPU float64) time.Duration {
	return link.TransferTime(wire) + seqRestore(imageBytes, guestCPU) + seqReint(texBytes, entries, guestCPU)
}

// emitChunkSpans attaches one instant span per lane under the transfer
// stage span, carrying the lane's schedule as microsecond offsets from the
// checkpoint stage start. fluxstat renders these as per-chunk lanes.
func (p *pipelinePlan) emitChunkSpans(sp *obs.Span) {
	if sp == nil {
		return
	}
	for i := range p.Lanes {
		l := &p.Lanes[i]
		child := sp.Child(SpanPipelineChunk,
			obs.Int64("chunk", int64(i)),
			obs.String("kind", l.Chunk.Kind.String()),
			obs.Int64("segment", int64(l.Chunk.Segment)),
			obs.Int64("raw_bytes", l.Chunk.Raw),
			obs.Int64("wire_bytes", l.Wire),
			obs.Int64("ckpt_start_us", l.CkptStart.Microseconds()),
			obs.Int64("ckpt_end_us", l.CkptEnd.Microseconds()),
			obs.Int64("comp_start_us", l.CompStart.Microseconds()),
			obs.Int64("comp_end_us", l.CompEnd.Microseconds()),
			obs.Int64("xfer_start_us", l.XferStart.Microseconds()),
			obs.Int64("xfer_end_us", l.XferEnd.Microseconds()),
			obs.Int64("rstr_start_us", l.RstrStart.Microseconds()),
			obs.Int64("rstr_end_us", l.RstrEnd.Microseconds()),
			obs.Bool("working_set", i <= p.wsIndex),
		)
		if l.Cached {
			child.Attr(obs.Bool("cached", true))
		}
		child.End()
	}
}
