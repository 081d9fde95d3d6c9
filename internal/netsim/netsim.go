// Package netsim models the wireless links Flux migrates over. The paper's
// evaluation ran on a congested campus 802.11n network, with the Nexus 7
// (2012) pinned to the crowded 2.4 GHz band; transfer time dominating
// migration time is the headline shape of Figure 13, so the link model —
// effective bandwidth, per-transfer setup latency — is what reproduces it.
// Every price is a pure function of the link and the byte counts, so the
// migration's real and counterfactual paths call the same functions.
package netsim

import (
	"fmt"
	"time"
)

// Radio describes one device's WiFi adapter as deployed (i.e. effective
// rates on the evaluation network, not the datasheet rate).
type Radio struct {
	Name string
	// EffectiveBps is sustained goodput on the evaluation network, in
	// BYTES per second.
	EffectiveBps int64
	// SetupLatency is per-transfer connection/negotiation overhead.
	SetupLatency time.Duration
}

// Standard radios for the evaluation devices. The 2012 Nexus 7 only speaks
// 2.4 GHz 802.11n and sits on the congested band (paper §4).
var (
	// Radio80211n5G is an 802.11n adapter on the less-congested 5 GHz band
	// (Nexus 4, Nexus 7 2013): ~18 Mbit/s goodput on the busy campus
	// network of the evaluation.
	Radio80211n5G = Radio{Name: "802.11n-5GHz", EffectiveBps: 18_000_000 / 8, SetupLatency: 150 * time.Millisecond}
	// Radio80211n24G is an 802.11n adapter stuck on the extremely congested
	// 2.4 GHz band (Nexus 7 2012): ~9 Mbit/s goodput.
	Radio80211n24G = Radio{Name: "802.11n-2.4GHz", EffectiveBps: 9_000_000 / 8, SetupLatency: 220 * time.Millisecond}
)

// Link is a point-to-point path between two radios through the AP.
type Link struct {
	A, B Radio
}

// Bandwidth returns the link's end-to-end goodput: the slower radio bounds
// it, and relaying through the AP costs airtime on both hops when the
// radios share a band (both 802.11n on one AP), modelled as a 15% tax.
// Cross-band links (one radio on 2.4 GHz, the other on 5 GHz) relay over
// independent airtime, so the slower radio's rate passes through untaxed.
func (l Link) Bandwidth() int64 {
	bw := l.A.EffectiveBps
	if l.B.EffectiveBps < bw {
		bw = l.B.EffectiveBps
	}
	if l.A.Name == l.B.Name {
		// Same band: both AP hops contend for the same airtime.
		bw = bw * 85 / 100
	}
	return bw
}

// Latency returns per-transfer setup cost: both sides negotiate.
func (l Link) Latency() time.Duration {
	if l.A.SetupLatency > l.B.SetupLatency {
		return l.A.SetupLatency
	}
	return l.B.SetupLatency
}

// TransferTime returns how long shipping n bytes takes on the link:
// one setup latency plus the payload's airtime. Negative sizes count as
// zero, and a zero-bandwidth link costs only the setup latency.
func (l Link) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	bw := l.Bandwidth()
	if bw <= 0 {
		return l.Latency()
	}
	return l.Latency() + payloadTime(n, bw)
}

// payloadTime is the pure airtime of n bytes at bw bytes/sec.
func payloadTime(n, bw int64) time.Duration {
	return time.Duration(float64(n) / float64(bw) * float64(time.Second))
}

// AirTime is the pure on-air duration of n bytes on the link — no setup
// latency, no per-chunk framing. The migration fault model uses it to
// price individual chunk retransmissions. Non-positive sizes (and
// zero-bandwidth links) cost nothing.
func (l Link) AirTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	bw := l.Bandwidth()
	if bw <= 0 {
		return 0
	}
	return payloadTime(n, bw)
}

// NegotiateTime is the cost of the delta-migration cache negotiation:
// the home device advertises the image's chunk digests (up bytes), the
// guest answers with its have-set and rolling-delta signatures (down
// bytes). One extra round trip inside the already-negotiated session —
// a single setup latency plus the airtime of both directions (negative
// sizes cost nothing).
func (l Link) NegotiateTime(up, down int64) time.Duration {
	return l.Latency() + l.AirTime(up) + l.AirTime(down)
}

// StreamChunkOverhead is the per-chunk framing/acknowledgement cost of a
// chunked stream beyond the first chunk (the first is covered by the
// link's setup latency). Small relative to SetupLatency: the stream stays
// inside one negotiated session.
const StreamChunkOverhead = 500 * time.Microsecond

// AppendChunkTimes appends to dst the wire duration of each chunk in a
// streamed transfer: chunk 0 carries the link setup latency, every later
// chunk a StreamChunkOverhead. Per-chunk airtime is computed from
// cumulative payload deltas, so the total telescopes to exactly
//
//	TransferTime(sum) + (len(chunks)-1) * StreamChunkOverhead
//
// — chunking never changes total airtime, only adds framing (tested
// equivalence). Negative chunk sizes count as zero. The pipelined
// scheduler passes dst[:0] of a retained buffer, so the schedule costs
// no allocation per migration.
func (l Link) AppendChunkTimes(dst []time.Duration, chunks []int64) []time.Duration {
	bw := l.Bandwidth()
	var cum int64
	var prev time.Duration
	for i, n := range chunks {
		if n < 0 {
			n = 0
		}
		cum += n
		var d time.Duration
		if bw > 0 {
			cur := payloadTime(cum, bw)
			d = cur - prev
			prev = cur
		}
		if i == 0 {
			d += l.Latency()
		} else {
			d += StreamChunkOverhead
		}
		dst = append(dst, d)
	}
	return dst
}

// String describes the link.
func (l Link) String() string {
	return fmt.Sprintf("%s<->%s (%.1f Mbit/s)", l.A.Name, l.B.Name, float64(l.Bandwidth())*8/1e6)
}
