package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"cxfs/internal/obs"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// totals sums the runs of one pass over a workload's seeds; the per-layer
// metrics are ratios of these sums.
type totals struct {
	ops, tolerated, hard int
	servers              int
	simSpan              time.Duration
	k                    counters

	wall     time.Duration
	gcCycles uint64
	gcPause  time.Duration
}

func sum(ss []sample) totals {
	var t totals
	for _, s := range ss {
		t.ops += s.ops
		t.servers = s.servers
		t.tolerated += s.tolerated
		t.hard += s.hard
		t.simSpan += s.simSpan
		t.k.add(s.delta)
		t.wall += s.wall
		t.gcCycles += uint64(s.gcCycles)
		t.gcPause += s.gcPause
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd is what a user of the simulator sees. Every value is the median
// over the run's replays of that replay's own figure, so that a seed whose
// simulated outcome sits in a rare mode (the log-full stalls, see NOTES.md)
// does not move the result.
func endToEnd(ss []sample) metrics {
	med := func(f func(s sample) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	m := metrics{}
	m.set("host_cpu_us_per_op", med(func(s sample) float64 { return float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.ops) }), "us")
	m.set("allocs_per_op", med(func(s sample) float64 { return float64(s.mallocs) / float64(s.ops) }), "count")
	m.set("alloc_bytes_per_op", med(func(s sample) float64 { return float64(s.allocBytes) / float64(s.ops) }), "B")
	m.set("max_rss_mb", maxRSSMiB(), "MiB")
	var setups []float64
	for _, s := range ss {
		for _, d := range s.setups {
			setups = append(setups, d.Seconds())
		}
	}
	m.set("setup_s", median(setups), "s")
	m.set("sim_ops_per_s", med(func(s sample) float64 { return float64(s.ops) / s.simTime.Seconds() }), "ops/s")
	m.set("sim_mean_ms", med(func(s sample) float64 { return ms(mean(s.lat)) }), "ms")
	m.set("sim_p99_ms", med(func(s sample) float64 { return ms(quantile(s.lat, 0.99)) }), "ms")
	m.set("msgs_per_op", med(func(s sample) float64 { return float64(s.delta.net.Messages) / float64(s.ops) }), "count")
	return m
}

// msgGroups folds the wire message types into the families the paper's
// Table IV discussion uses. Every type is in exactly one group, so the
// groups sum to the total.
var msgGroups = map[string][]wire.MsgType{
	"subop":    {wire.MsgSubOpReq, wire.MsgSubOpResp, wire.MsgOpReq, wire.MsgOpResp},
	"commit":   {wire.MsgLCom, wire.MsgAllNo, wire.MsgVote, wire.MsgVoteResp, wire.MsgCommitReq, wire.MsgAck},
	"conflict": {wire.MsgConflictNotify},
	"lookup":   {wire.MsgLookupReq, wire.MsgLookupResp},
	"clear":    {wire.MsgClear},
	"other": {wire.MsgInvalid, wire.MsgMigrateReq, wire.MsgMigrateResp, wire.MsgMigrateBack,
		wire.MsgMigrateAck, wire.MsgPing, wire.MsgPong},
}

// opKinds are the kinds the per-kind latency metrics cover.
var opKinds = []types.OpKind{types.OpCreate, types.OpRemove, types.OpStat, types.OpLookup, types.OpSetAttr}

// spans is what one traced run's obs events say about virtual time.
type spans struct {
	events  int
	byKind  map[string][]time.Duration // op spans per kind
	all     []time.Duration            // every op span, sorted
	exec    time.Duration              // summed exec spans
	appends time.Duration              // summed result-record append spans
}

func readSpans(evs []obs.Event) spans {
	sp := spans{events: len(evs), byKind: map[string][]time.Duration{}}
	for _, ev := range evs {
		switch ev.Phase {
		case obs.PhaseOp:
			kind, _, _ := strings.Cut(ev.Detail, "/")
			sp.byKind[kind] = append(sp.byKind[kind], ev.Dur)
			sp.all = append(sp.all, ev.Dur)
		case obs.PhaseExec:
			sp.exec += ev.Dur
		case obs.PhaseAppend:
			sp.appends += ev.Dur
		}
	}
	sortDurations(sp.all)
	return sp
}

// perLayer turns one pass's counters and CPU fold, and the spans of its
// traced twin, into the per-layer metrics.
func perLayer(t totals, cf cpuFold, traced []sample) metrics {
	var events int
	var exec, appends, tracedWall time.Duration
	var all []time.Duration
	byKind := map[string][]time.Duration{}
	for _, s := range traced {
		events += s.spans.events
		exec += s.spans.exec
		appends += s.spans.appends
		tracedWall += s.wall
		all = append(all, s.spans.all...)
		for kind, d := range s.spans.byKind {
			byKind[kind] = append(byKind[kind], d...)
		}
	}
	sortDurations(all)
	for _, d := range byKind {
		sortDurations(d)
	}
	k := t.k
	ops := float64(t.ops)
	perOp := func(x float64) float64 { return x / ops }
	perKop := func(x float64) float64 { return 1000 * x / ops }
	m := metrics{}
	for _, l := range cpuLayers {
		m.set(l+".cpu_share", cf.share(l), "share")
	}

	m.set("op_error_share", float64(t.tolerated+t.hard)/ops, "share")
	m.set("host_ops_per_s", ops/t.wall.Seconds(), "ops/s")

	m.set("simrt.events_per_op", perOp(float64(k.events)), "count")
	m.set("simrt.host_ns_per_event", ratio(float64(t.wall.Nanoseconds()), float64(k.events)), "ns")

	m.set("transport.msgs_per_op", perOp(float64(k.net.Messages)), "count")
	m.set("transport.bytes_per_op", perOp(float64(k.net.Bytes)), "B")
	for group, typs := range msgGroups {
		var n uint64
		for _, mt := range typs {
			n += k.net.ByType[mt]
		}
		m.set("transport.msgs_"+group+"_per_op", perOp(float64(n)), "count")
	}
	m.set("transport.dropped", float64(k.dropped()), "count")

	m.set("node.subops_per_op", perOp(float64(k.subOpsRun)), "count")
	m.set("node.msgs_handled_per_op", perOp(float64(k.msgsHandled)), "count")

	m.set("core.conflicts_per_kop", perKop(float64(k.conflicts)), "count")
	m.set("core.invalidations_per_kop", perKop(float64(k.invalidations)), "count")
	m.set("core.exec.sim_us_per_op", perOp(float64(exec.Nanoseconds())/1e3), "us")
	m.set("core.append.sim_us_per_op", perOp(float64(appends.Nanoseconds())/1e3), "us")

	rounds := float64(k.net.ByType[wire.MsgVote])
	finished := float64(k.committed + k.aborted)
	m.set("core.immediate_launches_per_kop", perKop(float64(k.immediate)), "count")
	m.set("core.lazy_batches", float64(k.lazy), "count")
	m.set("core.commit.rounds_per_launch", ratio(rounds, float64(k.immediate+k.lazy)), "count")
	m.set("core.ops_per_round", ratio(finished, rounds), "count")
	m.set("core.aborted_share", ratio(float64(k.aborted), finished), "share")
	m.set("core.vote_timeouts", float64(k.voteTimeouts), "count")

	m.set("core.cache.hit_rate", ratio(float64(k.cache.Hits), float64(k.cache.Hits+k.cache.Misses)), "share")
	m.set("core.cache.invalidations_per_kop", perKop(float64(k.cache.Invalidations)), "count")
	m.set("core.cache.revocations_per_kop", perKop(float64(k.cache.Revocations)), "count")
	m.set("core.lease.grants_per_kop", perKop(float64(k.leaseGrants)), "count")

	m.set("op.sim_p50_ms", ms(quantile(all, 0.50)), "ms")
	for _, kind := range opKinds {
		lat := byKind[kind.String()]
		m.set("op."+kind.String()+".sim_p50_ms", ms(quantile(lat, 0.50)), "ms")
		m.set("op."+kind.String()+".sim_p99_ms", ms(quantile(lat, 0.99)), "ms")
	}

	m.set("wal.appends_per_op", perOp(float64(k.wal.Appends)), "count")
	m.set("wal.records_per_append", ratio(float64(k.wal.Records), float64(k.wal.Appends)), "count")
	m.set("wal.bytes_per_op", perOp(float64(k.wal.BytesWritten)), "B")
	m.set("wal.full_stalls", float64(k.wal.FullStalls), "count")
	m.set("wal.group_flushes_per_kop", perKop(float64(k.wal.GroupFlushes)), "count")

	m.set("disk.requests_per_op", perOp(float64(k.disk.Requests)), "count")
	m.set("disk.mech_ops_per_op", perOp(float64(k.disk.MechOps)), "count")
	m.set("disk.merge_share", ratio(float64(k.disk.Merged), float64(k.disk.Requests)), "share")
	m.set("disk.busy_share", ratio(k.disk.BusyTime.Seconds(), t.simSpan.Seconds()*float64(t.servers)), "share")

	m.set("kvstore.sync_writes_per_op", perOp(float64(k.kv.SyncWrites)), "count")
	m.set("kvstore.flush_pages_per_op", perOp(float64(k.kv.FlushPages)), "count")
	m.set("kvstore.puts_per_op", perOp(float64(k.kv.Puts)), "count")

	m.set("runtime.malloc.cpu_share", ratio(float64(cf.malloc), float64(cf.total)), "share")
	m.set("runtime.gc_cycles_per_kop", perKop(float64(t.gcCycles)), "count")
	m.set("runtime.gc_pause_ms", ratio(ms(t.gcPause), float64(t.gcCycles)), "ms")

	m.set("obs.tracing_overhead", tracedWall.Seconds()/t.wall.Seconds()-1, "share")
	m.set("obs.events_per_op", perOp(float64(events)), "count")
	return m
}
