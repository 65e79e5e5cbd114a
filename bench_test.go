// Benchmarks regenerating every table and figure of the paper's evaluation
// (§IV). Each benchmark runs the corresponding harness experiment and
// reports the paper's headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints, per experiment, the measured
// shape next to nothing-up-my-sleeve custom metrics (improvement fractions,
// conflict ratios, ops/s). EXPERIMENTS.md records the paper-vs-measured
// comparison produced by these runs at the default scale.
//
// The "virtual" cost of each experiment is fixed by its scale; wall time
// per iteration is a few hundred milliseconds to a few seconds.
package cxfs_test

import (
	"strconv"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/harness"
	"cxfs/internal/metarates"
	"cxfs/internal/trace"
)

// benchCfg is the shared scale for benchmark runs: big enough for stable
// shapes, small enough to iterate.
func benchCfg() harness.Config {
	return harness.Config{Scale: 0.002, Servers: 8, Seed: 1}
}

// BenchmarkTable2ConflictRatio measures the conflict ratio of all six
// workloads (paper Table II: 0.112% .. 2.972%).
func BenchmarkTable2ConflictRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Table2(benchCfg())
		for _, r := range rows {
			b.ReportMetric(r.ConflictRatio*100, "conflict%/"+r.Workload)
		}
	}
}

// BenchmarkTable4MessageOverhead measures OFS-Cx's message overhead over
// OFS (paper Table IV: 1.0% .. 3.1%).
func BenchmarkTable4MessageOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Table4(benchCfg())
		for _, r := range rows {
			b.ReportMetric(r.Overhead*100, "msg-ovh%/"+r.Workload)
		}
	}
}

// BenchmarkTable5Recovery measures recovery time against the valid-record
// backlog (paper Table V: 3s@5KB .. 17s@1000KB, sublinear).
func BenchmarkTable5Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Table5(benchCfg())
		for _, r := range rows {
			b.ReportMetric(r.RecoveryTime.Seconds()*1000, "recovery-ms/"+time.Duration(r.ValidKB<<10).String())
		}
		if len(rows) == 6 && rows[1].RecoveryTime > 0 {
			b.ReportMetric(float64(rows[5].RecoveryTime)/float64(rows[1].RecoveryTime), "growth-100x")
		}
	}
}

// BenchmarkFig4OpMix regenerates the operation-mix distribution.
func BenchmarkFig4OpMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.Fig4(benchCfg())
		if len(tbl.Rows) != 6 {
			b.Fatal("missing workloads")
		}
	}
}

// BenchmarkFig5TraceReplay regenerates the trace-driven comparison (paper
// Figure 5: Cx >=38% over OFS on every trace, >=16% over OFS-batched).
func BenchmarkFig5TraceReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Fig5(benchCfg(), nil)
		for _, r := range rows {
			b.ReportMetric(r.CxOverOFS*100, "cx-vs-ofs%/"+r.Workload)
			b.ReportMetric(r.CxOverBatch*100, "cx-vs-batched%/"+r.Workload)
			if r.CxOverOFS < 0.38 {
				b.Errorf("%s: Cx improvement over OFS %.0f%% below the paper's 38%% floor",
					r.Workload, r.CxOverOFS*100)
			}
			if r.CxOverBatch < 0.10 {
				b.Errorf("%s: Cx improvement over OFS-batched %.0f%% below the paper's ~16%%",
					r.Workload, r.CxOverBatch*100)
			}
		}
	}
}

// BenchmarkFig6Metarates regenerates the benchmark-driven scaling runs
// (paper Figure 6: Cx gains >=70% update-dominated, >=40% read-dominated,
// scaling to 32 servers).
func BenchmarkFig6Metarates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Fig6(benchCfg(), []int{4, 8, 16, 32}, 30)
		byMix := map[string][]harness.Fig6Row{}
		for _, r := range rows {
			b.ReportMetric(r.OFSCx, "cx-ops/s/"+r.Mix[:4]+"-"+strconv.Itoa(r.Servers))
			b.ReportMetric(r.CxGain*100, "cx-gain%/"+r.Mix[:4]+"-"+strconv.Itoa(r.Servers))
			byMix[r.Mix] = append(byMix[r.Mix], r)
		}
		for mix, rs := range byMix {
			for j := 1; j < len(rs); j++ {
				if rs[j].OFSCx <= rs[j-1].OFSCx {
					b.Errorf("%s: Cx throughput did not scale %d->%d servers", mix, rs[j-1].Servers, rs[j].Servers)
				}
			}
		}
	}
}

// BenchmarkFig7aLogSize regenerates the log-size sensitivity sweep.
func BenchmarkFig7aLogSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Fig7a(benchCfg(), nil)
		for _, r := range rows {
			label := "unlimited"
			if r.LimitBytes > 0 {
				label = strconv.Itoa(int(r.LimitBytes>>10)) + "KB"
			}
			b.ReportMetric(r.ReplayTime.Seconds()*1000, "replay-ms/"+label)
		}
		if rows[0].ReplayTime <= rows[len(rows)-1].ReplayTime {
			b.Error("smallest log should be slowest")
		}
	}
}

// BenchmarkFig7bValidRecords regenerates the valid-record time series
// (paper Figure 7b: rise to a peak, periodic drops at each lazy batch).
func BenchmarkFig7bValidRecords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, _ := harness.Fig7b(benchCfg(), 100*time.Millisecond)
		b.ReportMetric(series.Peak(), "peak-bytes")
		b.ReportMetric(float64(series.Drops(0.3)), "pruning-drops")
		if series.Drops(0.3) == 0 {
			b.Error("no periodic pruning drops")
		}
	}
}

// BenchmarkFig8ConflictRatio regenerates the conflict sweep (paper Figure
// 8: Cx degrades with injected conflicts but beats OFS until ~20%).
func BenchmarkFig8ConflictRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, ofs, _ := harness.Fig8(benchCfg(), nil)
		crossover := -1.0
		for _, r := range rows {
			b.ReportMetric(r.CxReplay.Seconds()*1000, "cx-ms/inject-"+strconv.Itoa(int(r.InjectRate*100+0.5)))
			if r.CxReplay >= ofs && crossover < 0 {
				crossover = r.ConflictRatio
			}
		}
		if crossover >= 0 {
			b.ReportMetric(crossover*100, "crossover-conflict%")
		} else {
			b.ReportMetric(100, "crossover-conflict%") // never crossed in sweep
		}
		if rows[0].CxReplay >= ofs {
			b.Error("Cx lost to OFS at base conflict ratio")
		}
	}
}

// BenchmarkFig9aTimeout regenerates the timeout-trigger sweep (paper
// Figure 9a: longer timeouts replay faster).
func BenchmarkFig9aTimeout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Fig9a(benchCfg(), nil)
		for _, r := range rows {
			b.ReportMetric(r.ReplayTime.Seconds()*1000, "replay-ms/"+r.Setting)
		}
		if rows[len(rows)-1].ReplayTime >= rows[0].ReplayTime {
			b.Error("longest timeout should be fastest")
		}
	}
}

// BenchmarkFig9bThreshold regenerates the threshold-trigger sweep.
func BenchmarkFig9bThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Fig9b(benchCfg(), nil)
		for _, r := range rows {
			b.ReportMetric(r.ReplayTime.Seconds()*1000, "replay-ms/th-"+r.Setting)
		}
		if rows[len(rows)-1].ReplayTime >= rows[0].ReplayTime {
			b.Error("largest threshold should be fastest")
		}
	}
}

// BenchmarkProtocolsAblation compares all five protocols on one trace —
// the extension experiment (the paper describes 2PC and CE but does not
// run them).
func BenchmarkProtocolsAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.Protocols(benchCfg())
		for _, r := range rows {
			b.ReportMetric(r.ReplayTime.Seconds()*1000, "replay-ms/"+string(r.Protocol))
		}
	}
}

// BenchmarkMetaratesSingleRun is a plain throughput microbench of the Cx
// cluster (useful for profiling the simulator itself).
func BenchmarkMetaratesSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := cluster.DefaultOptions(8, cluster.ProtoCx)
		c := cluster.MustNew(o)
		res := metarates.Run(c, metarates.Config{Mix: metarates.UpdateDominated, OpsPerProc: 20})
		c.Shutdown()
		b.ReportMetric(res.Throughput, "vops/s")
	}
}

// BenchmarkCxAblations quantifies the design choices DESIGN.md calls out,
// on the conflict-heavy home2 workload: full Cx, Cx without piggybacking
// other pending operations onto immediate commitments, and eager Cx
// (threshold 1: commit every operation individually — concurrency without
// batching).
func BenchmarkCxAblations(b *testing.B) {
	p, _ := trace.ProfileByName("home2")
	run := func(mutate func(*cluster.Options)) float64 {
		tr := trace.Generate(p, 0.002, 1)
		o := cluster.DefaultOptions(8, cluster.ProtoCx)
		o.ClientHosts = 16
		o.ProcsPerHost = 8
		if mutate != nil {
			mutate(&o)
		}
		c := cluster.MustNew(o)
		res := (&trace.Replayer{Trace: tr, C: c, ExtraSharedReads: 0.10}).Run()
		c.Shutdown()
		return res.ReplayTime.Seconds() * 1000
	}
	for i := 0; i < b.N; i++ {
		full := run(nil)
		noPiggy := run(func(o *cluster.Options) { o.Cx.NoPiggyback = true })
		eager := run(func(o *cluster.Options) { o.Cx.Timeout = 0; o.Cx.Threshold = 1 })
		b.ReportMetric(full, "replay-ms/full")
		b.ReportMetric(noPiggy, "replay-ms/no-piggyback")
		b.ReportMetric(eager, "replay-ms/eager-commit")
		if full > noPiggy {
			b.Logf("note: piggybacking did not pay off this run (%.1f vs %.1f)", full, noPiggy)
		}
		if full >= eager {
			b.Errorf("batched Cx (%.1fms) should beat eager per-op commitment (%.1fms)", full, eager)
		}
	}
}
