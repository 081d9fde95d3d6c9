package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"flux/internal/migration"
	"flux/internal/obs"
	"flux/internal/record"
)

// attribution accumulates the self time of every traced span by name: a
// span's wall time minus the part of it that its child spans cover. Root
// spans are the benchmark's own (bench.op around each op, bench.itinerary
// around each itinerary's device set-up); their self time is harness time
// no layer span explains.
type attribution struct {
	self     map[string]time.Duration
	walls    map[string][]time.Duration
	rootWall time.Duration
	rootSelf time.Duration
	spans    uint64
	dropped  uint64

	// keep collects the spans of the first traced pass for --trace-out.
	keep    []obs.SpanData
	keeping bool
}

func (a *attribution) init() {
	a.self = map[string]time.Duration{}
	a.walls = map[string][]time.Duration{}
}

// drainIfFull drains the tracer once it holds half its ring, so that no
// op's spans are ever evicted. It runs between ops only, so every drained
// batch holds complete span trees.
func (a *attribution) drainIfFull() {
	if total, _ := obs.T().Stats(); total >= obs.DefaultSpanCapacity/2 {
		a.drain()
	}
}

// drain moves the tracer's spans into the totals and empties the ring.
func (a *attribution) drain() {
	t := obs.T()
	total, dropped := t.Stats()
	spans := t.Snapshot()
	t.Reset()
	a.spans += total
	a.dropped += dropped
	if a.keeping {
		a.keep = append(a.keep, spans...)
	}
	children := map[uint64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for _, s := range spans {
		wall := s.Wall()
		self := wall - covered(s, spans, children[s.ID])
		a.self[s.Name] += self
		a.walls[s.Name] = append(a.walls[s.Name], wall)
		if s.Parent == 0 {
			a.rootWall += wall
			a.rootSelf += self
		}
	}
}

// covered returns how much of parent's wall interval the union of its
// children's intervals covers.
func covered(parent obs.SpanData, spans []obs.SpanData, kids []int) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].StartWall, spans[k].EndWall
		if lo.Before(parent.StartWall) {
			lo = parent.StartWall
		}
		if hi.After(parent.EndWall) {
			hi = parent.EndWall
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var sum time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.lo.Before(end) {
			v.lo = end
		}
		if v.hi.After(v.lo) {
			sum += v.hi.Sub(v.lo)
			end = v.hi
		}
	}
	return sum
}

// layerShares maps each per-layer share metric to the spans whose self
// time it sums. Spans the library emits (migrate, stage.*, cria.*,
// replay.*) nest under bench.op; the others are the benchmark's own
// spans around each public call it makes.
var layerShares = []struct {
	metric string
	spans  []string
}{
	{"device.share", []string{"device.new"}},
	{"apps.share", []string{"apps.install", "apps.launch"}},
	{"pairing.share", []string{"pairing.pair"}},
	{"binder.share", []string{"binder.burst"}},
	{"kernel.share", []string{"kernel.dirty"}},
	{"migrate.self_share", []string{migration.SpanMigrate}},
	{"stage.preparation.share", []string{"stage.preparation"}},
	{"stage.checkpoint.share", []string{"stage.checkpoint"}},
	{"stage.transfer.share", []string{"stage.transfer"}},
	{"stage.restore.share", []string{"stage.restore"}},
	{"stage.reintegration.share", []string{"stage.reintegration"}},
	{"cria.record_log.share", []string{"cria.record_log"}},
	{"cria.memory.share", []string{"cria.memory"}},
	{"cria.handle_table.share", []string{"cria.handle_table"}},
	{"cria.wrapper.share", []string{"cria.wrapper"}},
	{"cria.log_verify.share", []string{"cria.log_verify"}},
	{"replay.run.share", []string{"replay.run"}},
	{"replay.proxy.share", []string{"replay.proxy"}},
	{"fleet.reset.share", []string{"fleet.reset"}},
	{"fleet.run.share", []string{"fleet.run"}},
	{"fleet.report.share", []string{"fleet.report"}},
	{"fleet.render.share", []string{"fleet.render"}},
	{"bench.self_share", []string{"bench.op", "bench.itinerary"}},
}

// counts are the per-layer work counts of traced passes.
type counts struct {
	ops int

	// Selective Record, summed over both devices.
	observed, recorded, pruned, droppedByRule uint64
	// Log entries live at checkpoint, and calls recorded on the source
	// since the app arrived there (session-record).
	logEntries, sinceArrival uint64

	migrations, rollbacks        int
	replayEntries, replayProxied int
	hits, misses, rolling        int
	notShipped                   int64
	steadyHits, steadyNegotiated int // hops 2+ of a commuter itinerary
	chunks, fired, retries       int
	retransmitBytes, wireBytes   int64
	fleetEvents                  uint64
}

// migration adds one migration's report.
func (c *counts) migration(rep *migration.Report) {
	c.migrations++
	if rep.Outcome == migration.OutcomeRolledBack {
		c.rollbacks++
	}
	c.replayEntries += rep.ReplayStats.Total()
	c.replayProxied += rep.ReplayStats.Proxied
	c.hits += rep.CacheHits
	c.misses += rep.CacheMisses
	c.rolling += rep.CacheRollingHits
	c.notShipped += rep.CacheBytesNotShipped
	c.chunks += rep.PipelineChunks
	for _, n := range rep.FaultEvents {
		c.fired += n
	}
	c.retries += rep.Retries
	c.retransmitBytes += rep.RetransmitBytes
	c.wireBytes += rep.TransferredBytes
}

// steadyHop adds a commuter hop after the itinerary's first, the hops
// whose hit ratio the delta cache is judged on.
func (c *counts) steadyHop(rep *migration.Report) {
	c.steadyHits += rep.CacheHits + rep.CacheRollingHits
	c.steadyNegotiated += rep.CacheHits + rep.CacheRollingHits + rep.CacheMisses
}

// record adds the recorder counter deltas of both devices over one op.
func (c *counts) record(before, after [2]record.Stats) {
	for i := range before {
		c.observed += after[i].Observed - before[i].Observed
		c.recorded += after[i].Recorded - before[i].Recorded
		c.pruned += after[i].Pruned - before[i].Pruned
		c.droppedByRule += after[i].DroppedByRule - before[i].DroppedByRule
	}
}

// ratio returns a/b, or 0 when b is 0, so an absent layer reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics of a traced run: layer shares
// of traced wall time, work counts per op or per migration, GC work per
// op in the untraced passes, and the tracing overhead on op_p50_us.
func (m *meter) perLayer() map[string]metric {
	a, c, g := &m.layers, &m.counts, &m.gc
	ops, migs := float64(c.ops), float64(c.migrations)
	perOp := func(v float64) float64 { return ratio(v, ops) }
	perMig := func(v float64) float64 { return ratio(v, migs) }
	untraced := latencies(m.samplesOf(false), false)
	traced := latencies(m.samplesOf(true), false)
	out := map[string]metric{
		"record.observed_per_op":            {perOp(float64(c.observed)), "count"},
		"record.recorded_per_op":            {perOp(float64(c.recorded)), "count"},
		"record.pruned_per_op":              {perOp(float64(c.pruned)), "count"},
		"record.dropped_by_rule_per_op":     {perOp(float64(c.droppedByRule)), "count"},
		"record.log_entries_at_migrate":     {perMig(float64(c.logEntries)), "count"},
		"record.keep_ratio":                 {ratio(float64(c.logEntries), float64(c.sinceArrival)), "ratio"},
		"replay.entries_per_migration":      {perMig(float64(c.replayEntries)), "count"},
		"replay.proxied_per_migration":      {perMig(float64(c.replayProxied)), "count"},
		"chunkstore.hit_ratio":              {ratio(float64(c.steadyHits), float64(c.steadyNegotiated)), "ratio"},
		"chunkstore.hits_per_hop":           {perMig(float64(c.hits)), "count"},
		"chunkstore.misses_per_hop":         {perMig(float64(c.misses)), "count"},
		"chunkstore.rolling_hits_per_hop":   {perMig(float64(c.rolling)), "count"},
		"chunkstore.not_shipped_mb_per_hop": {perMig(float64(c.notShipped) / 1e6), "MB"},
		"pipeline.chunks_per_migration":     {perMig(float64(c.chunks)), "count"},
		"faults.fired_per_migration":        {perMig(float64(c.fired)), "count"},
		"faults.retries_per_migration":      {perMig(float64(c.retries)), "count"},
		"faults.retransmit_ratio":           {ratio(float64(c.retransmitBytes), float64(c.wireBytes)), "ratio"},
		"faults.rollback_ratio":             {perMig(float64(c.rollbacks)), "ratio"},
		"fleet.events_per_run":              {perOp(float64(c.fleetEvents)), "count"},
		"runtime.gc_cycles_per_op":          {ratio(float64(g.cycles), float64(g.ops)), "count"},
		"runtime.gc_pause_us_per_op":        {ratio(float64(g.pauseNs)/1e3, float64(g.ops)), "us"},
		"runtime.gc_cpu_share":              {100 * ratio(g.gcCPU, g.totalCPU), "%"},
		"obs.tracing_overhead_pct":          {100 * (ratio(percentile(traced, 0.5), percentile(untraced, 0.5)) - 1), "%"},
		"obs.spans_per_op":                  {perOp(float64(a.spans)), "count"},
		"obs.spans_dropped":                 {float64(a.dropped), "count"},
		"obs.explained_pct":                 {100 * (1 - ratio(float64(a.rootSelf), float64(a.rootWall))), "%"},
	}
	for _, l := range layerShares {
		var self time.Duration
		for _, s := range l.spans {
			self += a.self[s]
		}
		out[l.metric] = metric{100 * ratio(float64(self), float64(a.rootWall)), "%"}
	}
	return out
}

// writeLayers prints every traced span name with its instance count, p50
// wall time and self-time share, largest share first, followed by the
// latency of one workload run in session-record bursts.
func (m *meter) writeLayers(w io.Writer) {
	a := &m.layers
	names := make([]string, 0, len(a.self))
	for n := range a.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if a.self[names[i]] != a.self[names[j]] {
			return a.self[names[i]] > a.self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "  %-22s %8s %12s %8s\n", "SPAN", "COUNT", "P50 WALL us", "SELF %")
	for _, n := range names {
		walls := make([]float64, len(a.walls[n]))
		for i, d := range a.walls[n] {
			walls[i] = float64(d.Nanoseconds()) / 1e3
		}
		sort.Float64s(walls)
		fmt.Fprintf(w, "  %-22s %8d %12.1f %8.2f\n", n, len(walls), percentile(walls, 0.5),
			100*ratio(float64(a.self[n]), float64(a.rootWall)))
	}
	if len(m.runs) > 0 {
		runs := make([]float64, len(m.runs))
		for i, d := range m.runs {
			runs[i] = float64(d.Nanoseconds()) / 1e3
		}
		sort.Float64s(runs)
		fmt.Fprintf(w, "  workload run: %d runs, p50 %.2f us, p99 %.2f us\n",
			len(runs), percentile(runs, 0.5), percentile(runs, 0.99))
	}
}
