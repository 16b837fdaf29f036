package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/gencache"
	"dropzero/internal/loadgen"
)

// layerMetric is one per-layer metric of the traced run, with the end-to-end
// metric and workload it should move (and where it should not).
type layerMetric struct {
	Name, Unit, Better, Moves string
}

// perLayer is every per-layer metric, in print order. Span-derived timings
// come from the traced half of a --trace 1 run; counters, process and disk
// figures from its untraced half. A layer a workload bypasses reads 0.
var perLayer = []layerMetric{
	{"epp.self_us.p50", "us", "lower", "latency_p50_ms on drop-storm; near-nil share on durable-create"},
	{"epp.self_us.p99", "us", "lower", "latency tail on drop-storm"},
	{"epp.win_share", "ratio", "higher", "rereg delay on drop-storm (wins per create attempt)"},
	{"epp.ratelimited_share", "ratio", "lower", "must stay 0 everywhere"},
	{"registry.drop_apply_us.p50", "us", "lower", "ops_per_s and rereg delay on drop-storm"},
	{"registry.drop_apply_us.p99", "us", "lower", "ops_per_s and rereg delay on drop-storm"},
	{"registry.purge_per_s", "1/s", "higher", "ops_per_s and rereg delay on drop-storm"},
	{"registry.observer_us.p50", "us", "lower", "ops_per_s on drop-storm (purge cost)"},
	{"registry.observer_us.p99", "us", "lower", "ops_per_s on drop-storm (purge cost)"},
	{"journal.append_us.p50", "us", "lower", "ops_per_s and latency_p50_ms on drop-storm; invisible on durable-create"},
	{"journal.append_us.p99", "us", "lower", "ops_per_s on drop-storm"},
	{"journal.durable_wait_us.p50", "us", "lower", "latency_p50_ms on durable-create (ungated); lookup-mix writer purges; absent on drop-storm (async)"},
	{"journal.durable_wait_us.p99", "us", "lower", "latency tail on durable-create (ungated)"},
	{"journal.appends_per_fsync", "ratio", "higher", "ops_per_s on durable-create (ungated; group commit)"},
	{"journal.wal_bytes_per_mutation", "B", "lower", "ops_per_s on drop-storm and durable-create (ungated)"},
	{"journal.fsyncs_per_s", "1/s", "lower", "ops_per_s on durable-create (ungated)"},
	{"repl.quorum_wait_us.p50", "us", "lower", "latency_p50_ms on durable-create (ungated); lookup-mix writer purges"},
	{"repl.quorum_wait_us.p99", "us", "lower", "latency tail on durable-create (ungated)"},
	{"repl.records_per_batch", "ratio", "higher", "ops_per_s on durable-create (ungated)"},
	{"repl.follower_lag_ms.p99", "ms", "lower", "follower freshness on lookup-mix and durable-create; moves no gated metric"},
	{"feed.tap_append_us.p50", "us", "lower", "ops_per_s and latency_p50_ms on drop-storm"},
	{"feed.tap_append_us.p99", "us", "lower", "ops_per_s on drop-storm"},
	{"feed.records_per_batch", "ratio", "higher", "ops_per_s on drop-storm"},
	{"feed.delta_poll_us.p50", "us", "lower", "latency_p50_ms on lookup-mix"},
	{"feed.delta_poll_us.p99", "us", "lower", "latency tail on lookup-mix"},
	{"rdap.lookup_us.p50", "us", "lower", "latency_p50_ms and ops_per_s on lookup-mix; nothing on durable-create"},
	{"rdap.lookup_us.p99", "us", "lower", "latency tail on lookup-mix"},
	{"rdap.cache_hit_ratio", "ratio", "higher", "ops_per_s on lookup-mix"},
	{"whois.lookup_us.p50", "us", "lower", "ops_per_s on lookup-mix"},
	{"whois.lookup_us.p99", "us", "lower", "latency tail on lookup-mix"},
	{"whois.cache_hit_ratio", "ratio", "higher", "ops_per_s on lookup-mix"},
	{"dropscope.fetch_us.p50", "us", "lower", "latency tail on lookup-mix"},
	{"dropscope.fetch_us.p99", "us", "lower", "latency tail on lookup-mix"},
	{"dropscope.cache_hit_ratio", "ratio", "higher", "ops_per_s on lookup-mix"},
	{"journal.snapshot_read_s", "s", "lower", "latency_p50_ms on recovery"},
	{"journal.snapshot_decode_s", "s", "lower", "latency_p50_ms on recovery"},
	{"journal.snapshot_install_s", "s", "lower", "latency_p50_ms on recovery"},
	{"journal.replay_s", "s", "lower", "latency_p50_ms and ops_per_s on recovery"},
	{"journal.replay_records_per_s", "1/s", "higher", "ops_per_s on recovery"},
	{"journal.snapshot_bytes", "B", "lower", "latency_p50_ms on recovery (snapshot read); snapshot_s"},
	{"journal.snapshot_write_s", "s", "lower", "snapshot_s on recovery (reported, not gated)"},
	{"proc.cpu_us_per_op", "us", "lower", "ops_per_s on every workload"},
	{"proc.allocs_per_op", "count", "lower", "ops_per_s on every workload"},
	{"proc.gc_cycles", "count", "lower", "ops_per_s and latency tails on every workload"},
	{"disk.fsync_us.p50", "us", "lower", "explains durable-create drift; moves no gated metric"},
	{"trace.overhead_share", "ratio", "lower", "none: traced vs untraced ops_per_s, the cost of the spans"},
}

func layerNames() []string {
	out := make([]string, len(perLayer))
	for i, l := range perLayer {
		out[i] = l.Name
	}
	return out
}

func printLayerMap(w io.Writer) {
	fmt.Fprintln(w, "per-layer metric -> what it should move:")
	for _, l := range perLayer {
		fmt.Fprintf(w, "  %-32s %s\n", l.Name, l.Moves)
	}
}

// stackCounters is a reading of every layer's public Metrics() counters.
type stackCounters struct {
	walBytes, fsyncs, lastSeq     uint64
	feedRecords, feedBatches      uint64
	folRecords, folBatches        uint64
	rdap, whois, scope            gencache.Counters
	creates, created, rateLimited uint64
}

func (s *stack) counters() stackCounters {
	var c stackCounters
	m := s.jnl.Metrics()
	c.walBytes, c.fsyncs, c.lastSeq = m.WALBytes, m.WALFsyncs, s.jnl.LastSeq()
	fm := s.hub.Metrics()
	c.feedRecords, c.feedBatches = fm.Records, fm.Batches
	if s.fol != nil {
		m := s.fol.Metrics()
		c.folRecords, c.folBatches = m.Records, m.Batches
	}
	c.rdap, c.whois, c.scope = s.rdap.Metrics().Cache, s.whois.Metrics().Cache, s.scope.Metrics().Cache
	em := s.epp.Metrics()
	c.creates, c.created, c.rateLimited = em.Commands[epp.CmdCreate], em.Codes[epp.CodeOK], em.Codes[epp.CodeRateLimited]
	return c
}

// layers derives the counter-based per-layer metrics of a measurement from
// the readings around it. Logins happen at setup, so every 1000 result code
// in between is a won create.
func (s *stack) layers(a, b stackCounters, secs float64) []metric {
	d := func(x, y uint64) float64 { return float64(y - x) }
	hit := func(x, y gencache.Counters) float64 {
		return gencache.Counters{Hits: y.Hits - x.Hits, Misses: y.Misses - x.Misses}.HitRatio()
	}
	creates := d(a.creates, b.creates)
	out := []metric{
		{Name: "epp.win_share", Value: ratio(d(a.created, b.created), creates), Unit: "ratio"},
		{Name: "epp.ratelimited_share", Value: ratio(d(a.rateLimited, b.rateLimited), creates), Unit: "ratio"},
		{Name: "journal.appends_per_fsync", Value: ratio(d(a.lastSeq, b.lastSeq), d(a.fsyncs, b.fsyncs)), Unit: "ratio"},
		{Name: "journal.wal_bytes_per_mutation", Value: ratio(d(a.walBytes, b.walBytes), d(a.lastSeq, b.lastSeq)), Unit: "B"},
		{Name: "journal.fsyncs_per_s", Value: ratio(d(a.fsyncs, b.fsyncs), secs), Unit: "1/s"},
		{Name: "repl.records_per_batch", Value: ratio(d(a.folRecords, b.folRecords), d(a.folBatches, b.folBatches)), Unit: "ratio"},
		{Name: "feed.records_per_batch", Value: ratio(d(a.feedRecords, b.feedRecords), d(a.feedBatches, b.feedBatches)), Unit: "ratio"},
		{Name: "rdap.cache_hit_ratio", Value: hit(a.rdap, b.rdap), Unit: "ratio"},
		{Name: "whois.cache_hit_ratio", Value: hit(a.whois, b.whois), Unit: "ratio"},
		{Name: "dropscope.cache_hit_ratio", Value: hit(a.scope, b.scope), Unit: "ratio"},
	}
	if s.fol != nil {
		lag := s.fol.LagResult()
		v, ok := 0.0, printable(lag.Requests, 99)
		if ok {
			v = float64(lag.P99()) / float64(ms)
		}
		out = append(out, metric{Name: "repl.follower_lag_ms.p99", Value: v, Unit: "ms", Samples: lag.Requests, Refused: !ok})
	}
	return out
}

// spanTimings are the span-derived per-layer timings: metric prefix and the
// span whose durations it reads.
var spanTimings = []struct{ metric, span string }{
	{"registry.drop_apply_us", "registry.drop_apply"},
	{"registry.observer_us", "registry.observer"},
	{"journal.append_us", "journal.append"},
	{"journal.durable_wait_us", "journal.durable_wait"},
	{"repl.quorum_wait_us", "repl.quorum_wait"},
	{"feed.tap_append_us", "feed.tap_append"},
	{"feed.delta_poll_us", "feed.delta_poll"},
	{"rdap.lookup_us", "rdap.lookup"},
	{"whois.lookup_us", "whois.lookup"},
	{"dropscope.fetch_us", "dropscope.fetch"},
}

// budgetRoots are the root spans a budget is printed for, with the name of
// the root's own layer in the budget rows.
var budgetRoots = []struct{ root, layer string }{
	{"epp.create", "epp (self)"},
	{"registry.drop_apply", "registry (self)"},
	{"journal.open", "journal (self)"},
}

// traced is the --trace 1 run: the workload untraced for half the time (the
// baseline for tracing overhead, counters, process and disk figures), then
// on a fresh build traced for the other half.
func traced(name string, setup func(string) (instance, error), runDir string, d time.Duration, out io.Writer) (*report, []*phase, error) {
	half := d / 2
	dirA := filepath.Join(runDir, "untraced")
	inst, setupA, err := build(setup, dirA)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	pa, err := measure(inst, dirA, half, nil)
	if err != nil {
		return nil, nil, err
	}
	dirB := filepath.Join(runDir, "traced")
	inst, _, err = build(setup, dirB)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer()
	pb, err := measure(inst, dirB, half, tr)
	if err != nil {
		return nil, nil, err
	}
	orphans := tr.link()

	rep := &report{}
	index := map[string]int{}
	for i, l := range perLayer {
		rep.add(l.Name, 0, l.Unit, 0)
		index[l.Name] = i
	}
	set := func(m metric) {
		i, ok := index[m.Name]
		if !ok {
			panic("unknown per-layer metric " + m.Name)
		}
		rep.metrics[i] = m
	}
	setPct := func(prefix string, h *loadgen.Hist) {
		for _, p := range []float64{50, 99} {
			v, ok := pct(h, p, us)
			set(metric{Name: fmt.Sprintf("%s.p%g", prefix, p), Value: v, Unit: "us", Samples: h.Count(), Refused: !ok})
		}
	}
	for _, m := range pa.layers {
		set(m)
	}
	for _, st := range spanTimings {
		setPct(st.metric, tr.durations(st.span))
	}
	eppSelf := tr.selfTimes("epp.create", "epp (self)")
	setPct("epp.self_us", selfHist(eppSelf, "epp (self)"))
	ops := pa.ops
	cpu := pa.proc[1].cpu - pa.proc[0].cpu
	set(metric{Name: "proc.cpu_us_per_op", Value: ratio(float64(cpu)/float64(us), ops), Unit: "us"})
	set(metric{Name: "proc.allocs_per_op", Value: ratio(float64(pa.proc[1].mallocs-pa.proc[0].mallocs), ops), Unit: "count"})
	set(metric{Name: "proc.gc_cycles", Value: float64(pa.proc[1].gcs - pa.proc[0].gcs), Unit: "count"})
	fv, fok := pct(pa.fsync, 50, us)
	set(metric{Name: "disk.fsync_us.p50", Value: fv, Unit: "us", Samples: pa.fsync.Count(), Refused: !fok})
	opsA, opsB := pa.rate(), pb.rate()
	set(metric{Name: "trace.overhead_share", Value: 1 - ratio(opsB, opsA), Unit: "ratio"})

	rep.note("untraced half: setup %.3f s, ops_per_s %.1f, p50 %.4f ms (n=%d)", setupA, opsA, pa.medianMs(), len(pa.raw))
	rep.note("traced half:   ops_per_s %.1f, p50 %.4f ms (n=%d); %d spans, %d unlinked children",
		opsB, pb.medianMs(), len(pb.raw), len(tr.spans), orphans)
	rep.notes = append(rep.notes, pa.notes...)
	for _, br := range budgetRoots {
		rs := tr.selfTimes(br.root, br.layer)
		if len(rs) > 0 {
			var sb strings.Builder
			makeBudget(br.root, rs).print(&sb)
			rep.notes = append(rep.notes, strings.TrimRight(sb.String(), "\n"))
		}
	}
	path := filepath.Join(buildDir, "spans-"+name+".csv")
	if err := tr.dump(path); err != nil {
		return nil, nil, err
	}
	rep.note("spans written to %s", path)
	printLayerMap(out)
	return rep, []*phase{pa, pb}, nil
}

// fmtPct renders percentile p of h in ms with its sample count, or n/a under
// the percentile rule.
func fmtPct(h *loadgen.Hist, p float64) string {
	v, ok := pct(h, p, ms)
	if !ok {
		return fmt.Sprintf("n/a (n=%d)", h.Count())
	}
	return fmt.Sprintf("%.3f ms (n=%d)", v, h.Count())
}
