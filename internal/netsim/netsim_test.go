package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLinkBandwidthBoundedBySlowerRadio(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n24G}
	if got := l.Bandwidth(); got > Radio80211n24G.EffectiveBps {
		t.Errorf("link bandwidth %d exceeds slower radio %d", got, Radio80211n24G.EffectiveBps)
	}
}

// TestBandwidthSharedBandTax pins the documented semantics: the 15% AP
// relay tax applies only when both radios sit on the same band; a
// cross-band link passes the slower radio's rate through untaxed.
func TestBandwidthSharedBandTax(t *testing.T) {
	sameBand := Link{A: Radio80211n24G, B: Radio80211n24G}
	if got, want := sameBand.Bandwidth(), Radio80211n24G.EffectiveBps*85/100; got != want {
		t.Errorf("same-band bandwidth = %d, want taxed %d", got, want)
	}
	same5 := Link{A: Radio80211n5G, B: Radio80211n5G}
	if got, want := same5.Bandwidth(), Radio80211n5G.EffectiveBps*85/100; got != want {
		t.Errorf("same-band 5GHz bandwidth = %d, want taxed %d", got, want)
	}
	crossBand := Link{A: Radio80211n5G, B: Radio80211n24G}
	if got, want := crossBand.Bandwidth(), Radio80211n24G.EffectiveBps; got != want {
		t.Errorf("cross-band bandwidth = %d, want untaxed slower radio %d", got, want)
	}
	// Direction must not matter.
	if crossBand.Bandwidth() != (Link{A: Radio80211n24G, B: Radio80211n5G}).Bandwidth() {
		t.Error("cross-band bandwidth depends on radio order")
	}
	// The cross-band link is strictly faster than the congested
	// same-band link built from its slower radio.
	if crossBand.Bandwidth() <= sameBand.Bandwidth() {
		t.Error("cross-band link not faster than the taxed same-band link")
	}
}

// TestAirTime: pure airtime excludes setup latency and framing, and
// degenerate sizes cost nothing.
func TestAirTime(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n5G}
	n := int64(1 << 20)
	if got, want := l.AirTime(n), l.TransferTime(n)-l.Latency(); got != want {
		t.Errorf("AirTime(%d) = %v, want TransferTime-Latency %v", n, got, want)
	}
	if l.AirTime(0) != 0 || l.AirTime(-7) != 0 {
		t.Error("degenerate AirTime not zero")
	}
	zero := Link{A: Radio{Name: "x"}, B: Radio{Name: "x"}}
	if zero.AirTime(100) != 0 {
		t.Error("zero-bandwidth AirTime not zero")
	}
}

// TestNegotiateTime: one round trip — setup latency plus both
// directions' airtime — with degenerate sizes clamped to zero.
func TestNegotiateTime(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n5G}
	up, down := int64(32*120+16), int64((120+7)/8)
	if got, want := l.NegotiateTime(up, down), l.Latency()+l.AirTime(up)+l.AirTime(down); got != want {
		t.Errorf("NegotiateTime = %v, want %v", got, want)
	}
	if got := l.NegotiateTime(0, 0); got != l.Latency() {
		t.Errorf("empty negotiation = %v, want bare latency %v", got, l.Latency())
	}
	if got := l.NegotiateTime(-5, -9); got != l.Latency() {
		t.Errorf("negative sizes = %v, want bare latency %v", got, l.Latency())
	}
}

func TestLinkLatencyIsMax(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n24G}
	if got := l.Latency(); got != Radio80211n24G.SetupLatency {
		t.Errorf("latency = %v", got)
	}
}

func TestTransferTimeMonotoneInBytes(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n5G}
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		a %= 1 << 34
		b %= 1 << 34
		if a > b {
			a, b = b, a
		}
		return l.TransferTime(a) <= l.TransferTime(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferTimeScale(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n5G}
	// 10 MB at ~3.2 MB/s effective should take seconds, not ms or minutes.
	d := l.TransferTime(10 << 20)
	if d < time.Second || d > 20*time.Second {
		t.Errorf("10MB transfer = %v, outside plausible range", d)
	}
	if got := l.TransferTime(0); got != l.Latency() {
		t.Errorf("zero-byte transfer = %v, want latency %v", got, l.Latency())
	}
	if got := l.TransferTime(-5); got != l.Latency() {
		t.Errorf("negative-byte transfer = %v", got)
	}
}

func TestCongestedBandIsSlower(t *testing.T) {
	fast := Link{A: Radio80211n5G, B: Radio80211n5G}
	slow := Link{A: Radio80211n24G, B: Radio80211n24G}
	n := int64(5 << 20)
	if fast.TransferTime(n) >= slow.TransferTime(n) {
		t.Error("5GHz link not faster than congested 2.4GHz link")
	}
}

func TestLinkString(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n24G}
	if l.String() == "" {
		t.Error("empty link description")
	}
}

// TestStreamEquivalence pins the chunking exactness contract: a streamed
// transfer costs exactly the classic TransferTime of the summed payload
// plus per-chunk framing — chunking never changes total airtime.
func TestStreamEquivalence(t *testing.T) {
	cases := [][]int64{
		{100},
		{1 << 20},
		{512 << 10, 512 << 10},
		{1, 1, 1, 1, 1},
		{0, 1 << 20, 0},
		{-1, -2},
		{3, 1000, 70_000, 123_456, 7},
	}
	for _, l := range []Link{
		{A: Radio80211n5G, B: Radio80211n24G},
		{A: Radio{Name: "dead"}, B: Radio{Name: "dead"}}, // zero bandwidth
	} {
		for _, chunks := range cases {
			var sum int64
			for _, c := range chunks {
				if c > 0 {
					sum += c
				}
			}
			var streamed time.Duration
			for _, d := range l.AppendChunkTimes(nil, chunks) {
				streamed += d
			}
			want := l.TransferTime(sum) + time.Duration(len(chunks)-1)*StreamChunkOverhead
			if streamed != want {
				t.Errorf("%s chunks %v: streamed %v != TransferTime(sum)+overhead %v", l, chunks, streamed, want)
			}
		}
	}
}

// TestStreamEquivalenceProperty fuzzes chunk streams (including negative
// chunk sizes, which count as zero payload) against the telescoping
// identity.
func TestStreamEquivalenceProperty(t *testing.T) {
	l := Link{A: Radio80211n24G, B: Radio80211n24G}
	f := func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		chunks := make([]int64, len(raw))
		var sum int64
		for i, r := range raw {
			chunks[i] = int64(r)
			if r > 0 {
				sum += int64(r)
			}
		}
		var streamed time.Duration
		for _, d := range l.AppendChunkTimes(nil, chunks) {
			streamed += d
		}
		want := l.TransferTime(sum) + time.Duration(len(chunks)-1)*StreamChunkOverhead
		return streamed == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestChunkTimesFirstCarriesLatency: chunk 0 pays the link setup, later
// chunks only the per-chunk framing overhead.
func TestChunkTimesFirstCarriesLatency(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n24G}
	times := l.AppendChunkTimes(nil, []int64{0, 0, 0})
	if times[0] != l.Latency() {
		t.Errorf("first chunk %v, want setup latency %v", times[0], l.Latency())
	}
	for i := 1; i < len(times); i++ {
		if times[i] != StreamChunkOverhead {
			t.Errorf("chunk %d = %v, want framing overhead %v", i, times[i], StreamChunkOverhead)
		}
	}
}
