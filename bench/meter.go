package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"flux/internal/device"
	"flux/internal/migration"
	"flux/internal/obs"
)

// windows is how many groups of whole passes a run's measured ops are
// split into for the end-to-end metrics; fewer when there are fewer
// passes.
const windows = 32

// sample is one measured op.
type sample struct {
	lat    time.Duration // the op, end to end
	mig    time.Duration // the Migrate call inside it; 0 when the op has none
	at     time.Duration // op end, from the start of measurement
	allocs uint64        // cumulative heap allocations (objects) at op end
	bytes  uint64        // cumulative heap allocation bytes at op end
	live   uint64        // live heap bytes as of the last GC, at op end
	traced bool
}

// The runtime/metrics read after every measured op; readRuntime relies
// on this order.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

// meter runs passes, times their ops from outside the library, and keeps
// each pass's virtual outputs for the digest check.
type meter struct {
	traced    bool // tracing is on for the current pass
	measuring bool // samples are kept (false for set-up passes)
	start     time.Time
	base      sample // counters at the start of measurement
	samples   []sample
	rt        []metrics.Sample

	outs    [][]byte           // the current pass's output records, canonical op order
	reports []migration.Report // the current pass's trimmed reports, when non-nil

	attempted, failed int

	layers attribution     // span self times of traced passes
	counts counts          // per-layer work counts of traced passes
	runs   []time.Duration // latency of each workload run in traced bursts
	gc     gcStats         // GC work of untraced measured passes
}

func newMeter() *meter {
	m := &meter{rt: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		m.rt[i].Name = n
	}
	m.layers.init()
	return m
}

// readRuntime returns the allocation and live-heap counters now.
func (m *meter) readRuntime() sample {
	metrics.Read(m.rt)
	return sample{
		allocs: m.rt[0].Value.Uint64() + m.rt[1].Value.Uint64(),
		bytes:  m.rt[2].Value.Uint64(),
		live:   m.rt[3].Value.Uint64(),
	}
}

// startMeasuring begins keeping samples; op times are offsets from now.
func (m *meter) startMeasuring() {
	m.measuring = true
	m.base = m.readRuntime()
	m.start = time.Now()
}

// runPass runs one pass of w with tracing on or off and returns the
// digest of its outputs.
func (m *meter) runPass(w workload, traced bool, keepReports bool) (string, error) {
	if len(m.outs) != w.ops() {
		m.outs = make([][]byte, w.ops())
	}
	m.reports = nil
	if keepReports {
		m.reports = make([]migration.Report, w.ops())
	}
	var gc0 gcStats
	if m.measuring && !traced {
		gc0 = readGC()
	}
	m.traced = traced
	obs.SetEnabled(traced)
	err := w.pass(m)
	obs.SetEnabled(false)
	m.traced = false
	if traced {
		m.layers.drain()
	} else if m.measuring {
		m.gc.add(readGC(), gc0)
		m.gc.ops += w.ops()
	}
	if err != nil {
		m.failed++
	}
	return m.digest(), err
}

// op is one timed operation in flight. Its span is nil when tracing is
// off; every obs.Span method accepts nil.
type op struct {
	span *obs.Span
	t0   time.Time
	mig  time.Duration
}

func (m *meter) begin() op {
	return op{span: obs.T().Start("bench.op"), t0: time.Now()}
}

// migrate runs one Migrate call with the op span as the parent of the
// library's own span tree, and times it.
func (o *op) migrate(src, dst *device.Device, pkg string, opts migration.Options) (*migration.Report, error) {
	opts.Span = o.span
	t := time.Now()
	rep, err := migration.New(src, dst, opts).Migrate(pkg)
	o.mig += time.Since(t)
	return rep, err
}

// finish stops the op's clock and records its sample.
func (m *meter) finish(o op) {
	lat := time.Since(o.t0)
	o.span.End()
	m.attempted++
	if m.measuring {
		s := m.readRuntime()
		s.lat, s.mig, s.at, s.traced = lat, o.mig, time.Since(m.start), m.traced
		m.samples = append(m.samples, s)
	}
	if m.traced {
		m.counts.ops++
		m.layers.drainIfFull()
	}
}

// endMigrate closes an op whose result is one migration: it stores the
// migration's virtual outputs at canonical index idx and returns the
// failure, if any. A clean rollback to home is not a failure.
func (m *meter) endMigrate(o op, idx int, rep *migration.Report, err error) error {
	m.finish(o)
	m.outs[idx] = appendOutcome(m.outs[idx][:0], rep, err)
	if rep != nil {
		if m.reports != nil {
			m.reports[idx] = trim(rep)
		}
		if m.traced {
			m.counts.migration(rep)
		}
	}
	switch {
	case errors.Is(err, migration.ErrRolledBack):
		return nil
	case err != nil:
		return err
	case !rep.StateConsistent():
		return errors.New("guest service state diverged from home")
	}
	return nil
}

// endRender closes an op whose result is a rendered report.
func (m *meter) endRender(o op, idx int, out []byte, err error) error {
	m.finish(o)
	m.outs[idx] = append(m.outs[idx][:0], out...)
	return err
}

// appendOutcome encodes a migration's virtual outputs: outcome, the five
// stage timings, wire and cache accounting, fault recovery and replay
// totals. Wall-clock quantities never enter it.
func appendOutcome(b []byte, rep *migration.Report, err error) []byte {
	if rep == nil {
		return append(b, err.Error()...)
	}
	b = append(b, rep.Outcome...)
	b = append(b, 0)
	for _, t := range rep.Timings {
		b = binary.AppendVarint(b, int64(t))
	}
	rs := rep.ReplayStats
	for _, v := range [...]int64{
		rep.TransferredBytes,
		int64(rep.CacheHits), int64(rep.CacheMisses), int64(rep.CacheRollingHits),
		int64(rep.CachePoisoned), rep.CacheBytesNotShipped,
		int64(rep.Retries), rep.RetransmitBytes,
		int64(rs.Replayed), int64(rs.Proxied), int64(rs.SkippedExpired),
		int64(rs.SkippedMissingHW), int64(rs.Forwarded),
	} {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// trim copies a report without the references that keep its devices alive.
func trim(rep *migration.Report) migration.Report {
	t := *rep
	t.App, t.StateBefore, t.StateAfter, t.FaultEvents = nil, nil, nil, nil
	return t
}

// digest hashes the current pass's output records in canonical order.
func (m *meter) digest() string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, b := range m.outs {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gcStats is cumulative GC work over untraced measured passes.
type gcStats struct {
	ops      int
	cycles   uint32
	pauseNs  uint64
	gcCPU    float64
	totalCPU float64
}

var gcNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// readGC reads the GC counters now; ops is left zero.
func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(gcNames))
	for i, n := range gcNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcStats{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// add accumulates the GC work between two readings.
func (g *gcStats) add(end, start gcStats) {
	g.cycles += end.cycles - start.cycles
	g.pauseNs += end.pauseNs - start.pauseNs
	g.gcCPU += end.gcCPU - start.gcCPU
	g.totalCPU += end.totalCPU - start.totalCPU
}

// samplesOf returns the samples of traced or of untraced passes.
func (m *meter) samplesOf(traced bool) []sample {
	var out []sample
	for _, s := range m.samples {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

// latencies returns the op (or, with mig, the Migrate call) durations of
// samples in microseconds, sorted; ops without a Migrate call are skipped
// when mig is set.
func latencies(samples []sample, mig bool) []float64 {
	var out []float64
	for _, s := range samples {
		d := s.lat
		if mig {
			if s.mig == 0 {
				continue
			}
			d = s.mig
		}
		out = append(out, float64(d.Nanoseconds())/1e3)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quantile returns the nearest-rank q-quantile of unsorted values.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, q)
}

// endToEnd computes the end-to-end metrics of an untraced run from its
// ops, perPass to a pass, split into windows of whole passes, so that
// every window holds the same ops whatever order a pass runs them in. A
// window's wall time and allocations include everything the passes did
// between its ops, itinerary set-up and output hashing too.
//
// Other tenants of a shared host only ever add time, in phases lasting
// seconds to minutes, so each timing metric is read in the faster quarter
// of the windows: the upper quartile of window throughputs and the lower
// quartile of window latency percentiles. A slowdown of the code itself
// moves every window; a phase shorter than the run moves only some.
// Allocation and heap figures, which contention does not move, are
// window medians.
func endToEnd(samples []sample, perPass int, base sample, setupS float64) map[string]metric {
	n := len(samples)
	passes := max(1, n/perPass)
	k := min(windows, passes)
	var rate, p50, p95, allocs, kb, peak []float64
	for w := 0; w < k; w++ {
		i0, i1 := w*passes/k*perPass, (w+1)*passes/k*perPass
		if w == k-1 {
			i1 = n
		}
		prev := base
		if i0 > 0 {
			prev = samples[i0-1]
		}
		last := samples[i1-1]
		ops := float64(i1 - i0)
		rate = append(rate, ops/(last.at-prev.at).Seconds())
		lat := latencies(samples[i0:i1], false)
		p50 = append(p50, percentile(lat, 0.50))
		p95 = append(p95, percentile(lat, 0.95))
		allocs = append(allocs, float64(last.allocs-prev.allocs)/ops)
		kb = append(kb, float64(last.bytes-prev.bytes)/ops/1e3)
		var p uint64
		for _, s := range samples[i0:i1] {
			p = max(p, s.live)
		}
		peak = append(peak, float64(p)/1e6)
	}
	return map[string]metric{
		"setup_s":           {setupS, "s"},
		"ops_per_s":         {quantile(rate, 0.75), "1/s"},
		"op_p50_us":         {quantile(p50, 0.25), "us"},
		"op_p95_us":         {quantile(p95, 0.25), "us"},
		"allocs_per_op":     {quantile(allocs, 0.5), "count"},
		"alloc_kb_per_op":   {quantile(kb, 0.5), "kB"},
		"heap_live_peak_mb": {quantile(peak, 0.5), "MB"},
	}
}
