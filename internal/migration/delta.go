// Delta migrations (opt-in via Options.Cache): a content-addressed chunk
// cache on each device so repeat hops ship only dirty state.
//
// The commuter pattern — phone→tablet in the morning, tablet→phone at
// night — migrates the same app over the same pair all day, and most of
// the image bytes are identical hop to hop. With a cache configured, the
// checkpoint carries per-chunk SHA-256 content digests (the FXC3
// container revision), and the transfer stage opens with a negotiation:
// the home device advertises the digest list, the guest answers with its
// have-set, and only missing chunks cross the wire. Three fates per
// chunk:
//
//   - hit: the guest already holds the content; the chunk skips transfer
//     and compression entirely (it still gates restore order in the
//     pipelined scheduler — restore is serial and in stream order).
//   - rolling: the guest holds the chunk's previous content generation
//     (the app rewrote part of the segment since). The rsyncx
//     rolling-delta fallback ships block signatures guest→home and only
//     literal bytes home→guest.
//   - ship: full chunk on the wire, and both stores learn the digest so
//     the return hop hits.
//
// Fault composition: a poisoned cache entry (chunk.corrupt firing at the
// cache site) fails digest verification during negotiation, is dropped
// from the have-set, and the chunk is re-fetched over the wire — a
// priced, accounted fault event (Retries / RetransmitBytes / FaultEvents),
// never a panic, composing with the PR-4 retry/rollback machinery.
//
// Everything here is gated behind a non-nil Options.Cache: with the cache
// disabled (the default), no digest is computed, no negotiation runs, and
// migrations are byte- and timing-identical to a build without this file.

package migration

import (
	"time"

	"flux/internal/chunkstore"
	"flux/internal/cria"
	"flux/internal/faults"
	"flux/internal/obs"
	"flux/internal/rsyncx"
)

// SpanCacheLookup is the instant span emitted per negotiated chunk under
// the transfer stage span (fluxstat skips it in the flame, like
// pipeline.chunk).
const SpanCacheLookup = "cache.lookup"

// Negotiation wire-format constants: the home advertises one fixed
// header plus (digest, size) per chunk; the guest answers with a header,
// a have-bitmap, and rolling signatures for its near-miss chunks.
const (
	negHeaderBytes   = 16
	negPerChunkBytes = 32 + 8 // SHA-256 digest + uvarint-padded wire size
)

// chunkFate is a negotiated chunk's transfer outcome.
type chunkFate uint8

const (
	// fateShip puts the full chunk on the wire (miss, zero-wire, or
	// poisoned re-fetch).
	fateShip chunkFate = iota
	// fateHit serves the chunk from the guest's cache: no transfer, no
	// compression.
	fateHit
	// fateRolling ships an rsyncx rolling delta against the previous
	// content generation.
	fateRolling
)

func (f chunkFate) String() string {
	switch f {
	case fateHit:
		return "hit"
	case fateRolling:
		return "rolling"
	}
	return "ship"
}

// chunkPlan is one chunk's negotiated verdict.
type chunkPlan struct {
	fate chunkFate
	// ship is the wire bytes the chunk actually puts on the air (zero for
	// hits, rolling literals for fateRolling, full wire otherwise).
	ship int64
	// full is the chunk's cache-disabled wire size (the planPipeline
	// effective wire).
	full int64
	// compRaw is the uncompressed bytes the chunk still runs through the
	// compressor: zero for hits, the shipped fraction for rolling deltas,
	// everything for full ships.
	compRaw int64
}

// deltaPlan is the negotiation's per-chunk verdict plus its aggregate
// accounting.
type deltaPlan struct {
	// chunks parallels the chunk slice handed to negotiate.
	chunks []chunkPlan

	compRaw          int64 // sum of chunks[i].compRaw
	shippedImageWire int64 // sum of chunks[i].ship
	negUp, negDown   int64 // negotiation bytes home→guest / guest→home

	hits, misses, rollingHits, poisoned int

	notShipped int64 // wire bytes the cache kept off the air
	deltaBytes int64 // rolling literal bytes shipped

	// poisonEvents records cache entries that failed digest verification
	// during negotiation; the transfer stage prices and accounts them.
	poisonEvents []poisonEvent
}

type poisonEvent struct {
	chunk int
	wire  int64
}

// effectiveWire is a chunk's on-the-wire size for this run: the
// compressed wire normally, the raw size under SkipCompression (whose
// sequential ablation drops the compressed-metadata framing — metadata
// ships nothing). Shared by planPipeline and the negotiation so the two
// paths can never disagree on byte accounting.
func effectiveWire(c cria.Chunk, skipCompression bool) int64 {
	if !skipCompression {
		return c.Wire
	}
	if c.Kind == cria.ChunkMetadata {
		return 0
	}
	return c.Raw
}

// negotiate runs the digest exchange against the guest's cache and
// decides every chunk's fate. Pure decision logic on the stores — no
// clock advances and no telemetry; the transfer stage prices the
// negotiation round trip and accounts the outcome. fr (nil without fault
// injection) supplies the chunk.corrupt question asked of every would-be
// hit: a firing poisons the cached copy, which fails digest verification,
// drops out of the have-set, and re-fetches over the wire.
func (m *Migrator) negotiate(chunks []cria.Chunk, fr *faultRun) *deltaPlan {
	guest, source := m.Opts.Cache, m.Opts.SourceCache
	dp := &deltaPlan{
		chunks:  make([]chunkPlan, len(chunks)),
		negUp:   negHeaderBytes,
		negDown: negHeaderBytes,
	}
	var zero chunkstore.Digest
	advertised := 0
	for i, c := range chunks {
		full := effectiveWire(c, m.Opts.SkipCompression)
		if full <= 0 {
			// Nothing would cross the wire anyway; don't advertise it and
			// keep the compressor costed as without a cache.
			dp.chunks[i] = chunkPlan{fate: fateShip, full: full, compRaw: c.Raw}
			dp.compRaw += c.Raw
			continue
		}
		advertised++
		// A chunk ships and compresses whole unless it hits or takes a
		// rolling delta.
		cp := chunkPlan{fate: fateShip, ship: full, full: full, compRaw: c.Raw}
		switch {
		case guest.Contains(c.Digest):
			if fr != nil && fr.inj.Should(faults.ChunkCorrupt) {
				// Poisoned cache entry: the guest's digest verification
				// rejects its stored copy, so the chunk leaves the
				// have-set and ships in full; the fresh bytes replace the
				// bad entry.
				guest.Invalidate(c.Digest)
				guest.Put(c.Digest, c.Raw, full)
				dp.poisoned++
				dp.poisonEvents = append(dp.poisonEvents, poisonEvent{chunk: i, wire: full})
			} else {
				guest.Lookup(c.Digest, full) // counts the hit + bytes saved
				cp.fate, cp.ship, cp.compRaw = fateHit, 0, 0
				dp.hits++
				dp.notShipped += full
			}
		case c.PrevDigest != zero && guest.Contains(c.PrevDigest):
			guest.Lookup(c.Digest, full) // counts the miss
			lit := rsyncx.RollingLiteralBytes(full, c.DirtyFrac)
			sig := rsyncx.SignatureBytes(c.Raw)
			if lit+sig < full {
				cp.fate, cp.ship = fateRolling, lit
				// The compressor only touches the literal fraction.
				cp.compRaw = int64(float64(c.Raw) * float64(lit) / float64(full))
				dp.negDown += sig
				dp.notShipped += full - lit
				dp.deltaBytes += lit
				dp.rollingHits++
			} else {
				// Delta bookkeeping would cost more than re-shipping.
				dp.misses++
			}
			guest.Put(c.Digest, c.Raw, full)
		default:
			guest.Lookup(c.Digest, full) // counts the miss
			dp.misses++
			guest.Put(c.Digest, c.Raw, full)
		}
		// The home side learns every digest it offered: after this hop
		// both devices hold the content, so the return hop hits.
		source.Put(c.Digest, c.Raw, full)
		dp.chunks[i] = cp
		dp.compRaw += cp.compRaw
		dp.shippedImageWire += cp.ship
	}
	dp.negUp += int64(advertised) * negPerChunkBytes
	dp.negDown += int64(advertised+7) / 8 // have-bitmap
	return dp
}

// poisonOverhead prices the negotiation's poison events as transfer-stage
// fault recoveries: each costs one detection round trip plus first-retry
// backoff (the re-shipped bytes themselves ride the main stream, already
// counted in the shipped wire). Counts into Retries / RetransmitBytes and
// emits the standard fault.retry span per event.
func (dp *deltaPlan) poisonOverhead(fr *faultRun, sp *obs.Span) time.Duration {
	var overhead time.Duration
	for _, ev := range dp.poisonEvents {
		backoff := fr.pol.Backoff(1)
		cost := fr.link.Latency() + backoff
		overhead += cost
		fr.rep.Retries++
		fr.rep.RetransmitBytes += ev.wire
		fr.account(sp, StageTransfer, faults.ChunkCorrupt, 1, backoff, cost, ev.wire)
	}
	return overhead
}

// record copies the negotiation outcome into the report, stamps the
// transfer stage span and emits one cache.lookup instant span per
// negotiated chunk.
func (dp *deltaPlan) record(rep *Report, sp *obs.Span) {
	rep.CacheHits = dp.hits
	rep.CacheMisses = dp.misses
	rep.CacheRollingHits = dp.rollingHits
	rep.CachePoisoned = dp.poisoned
	rep.CacheBytesNotShipped = dp.notShipped
	rep.CacheDeltaBytes = dp.deltaBytes
	rep.CacheNegotiationBytes = dp.negUp + dp.negDown
	if sp != nil {
		for i, cp := range dp.chunks {
			if cp.full <= 0 {
				continue
			}
			sp.Child(SpanCacheLookup,
				obs.Int64("chunk", int64(i)),
				obs.String("outcome", cp.fate.String()),
				obs.Int64("full_wire_bytes", cp.full),
				obs.Int64("ship_bytes", cp.ship),
			).End()
		}
		sp.Attr(
			obs.Int64("cache_hits", int64(dp.hits)),
			obs.Int64("cache_misses", int64(dp.misses)),
			obs.Int64("cache_rolling", int64(dp.rollingHits)),
			obs.Int64("cache_poisoned", int64(dp.poisoned)),
			obs.Int64("cache_not_shipped_bytes", dp.notShipped),
			obs.Int64("cache_delta_bytes", dp.deltaBytes),
			obs.Int64("cache_negotiation_bytes", dp.negUp+dp.negDown),
		)
	}
}
