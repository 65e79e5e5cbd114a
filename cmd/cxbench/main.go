// Command cxbench regenerates the paper's evaluation tables and figures
// against the simulated cluster.
//
// Usage:
//
//	cxbench -exp all                # every paper table and figure, plus extensions
//	cxbench -exp fig5 -scale 0.01   # one experiment, bigger replay
//	cxbench -exp table5 -servers 8
//	cxbench -exp fig5 -hist -trace /tmp/fig5.trace
//	cxbench -exp chaos -seed 7 -duration 2s -faultrate 1.5
//
// The experiment IDs are the harness registry's; "cxbench -h" lists them.
// "all" runs every one but chaos and replay, which run only when named.
// Each prints a table whose rows mirror the paper's; EXPERIMENTS.md records
// the paper-vs-measured comparison. Each remaining flag's help text names
// the experiments that read it; -json FILE dumps the metarates or replay
// rows for CI artifacts. Chaos prints its nemesis schedule and a
// fingerprint that the same seed and flags always reproduce.
//
// With -hist, every operation's virtual-time latency is recorded and a
// per-kind/protocol/outcome quantile table (p50/p95/p99) is printed after
// the experiments. With -trace FILE, protocol-phase events are retained and
// written as Chrome trace_event JSON (load in chrome://tracing or Perfetto);
// a deterministic disordered-conflict probe runs last so the file always
// contains the invalidation and lazy-commitment paths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cxfs/internal/harness"
	"cxfs/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(harness.IDs(), "|")+"|all)")
		scale    = flag.Float64("scale", 0.004, "fraction of each paper trace's op count to replay")
		servers  = flag.Int("servers", 8, "metadata servers for trace-driven experiments")
		seed     = flag.Int64("seed", 1, "simulation seed")
		hist     = flag.Bool("hist", false, "print per-operation latency quantiles (p50/p95/p99) after the experiments")
		traceOut = flag.String("trace", "", "write protocol-phase events as Chrome trace_event JSON to this file")
		duration = flag.Duration("duration", 1500*time.Millisecond, "chaos: nemesis active window")
		fltRate  = flag.Float64("faultrate", 1.0, "chaos: scale factor on the lossy-link probabilities")
		pipeline = flag.Int("pipeline", 0, "client dispatch depth for metarates/chaos (0 or 1 = classic closed loop)")
		linger   = flag.Duration("linger", 0, "WAL group-commit linger window (0 = flush each append directly)")
		adaptive = flag.Bool("adaptive", false, "metarates: add the adaptive-lazy-period row")
		jsonOut  = flag.String("json", "", "metarates/replay: also write the rows as JSON to this file")
		workload = flag.String("workload", "s3d", "replay: trace profile to bench")
		seeds    = flag.String("seeds", "", "replay: comma-separated seed matrix (default the fixed trajectory matrix)")
		minratio = flag.Float64("minratio", 0, "statstorm: fail unless the cache's message reduction is at least this factor (0 = no gate)")
	)
	flag.Parse()

	var obsv *obs.Observer
	if *hist || *traceOut != "" {
		obsv = obs.New(obs.Options{Hist: *hist, Trace: *traceOut != ""})
	}

	cfg := harness.Config{Scale: *scale, Servers: *servers, Seed: *seed, Obs: obsv,
		Pipeline: *pipeline, Linger: *linger, Adaptive: *adaptive, Workload: *workload,
		MinRatio: *minratio, ChaosDuration: *duration, FaultRate: *fltRate}
	if *seeds != "" {
		for _, s := range strings.Split(*seeds, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fail(fmt.Errorf("bad -seeds entry %q: %v", s, err))
			}
			cfg.Seeds = append(cfg.Seeds, v)
		}
	}
	exps, err := harness.Select(*exp)
	if err != nil {
		fail(err)
	}
	for _, e := range exps {
		start := time.Now()
		out, err := e.Run(cfg)
		fmt.Print(out.Text)
		if err == nil && out.Rows != nil && *jsonOut != "" {
			if err = writeRowsJSON(*jsonOut, out.Rows); err == nil {
				fmt.Printf("%s: %s -> %s\n", e.ID, out.RowsLabel, *jsonOut)
			}
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("[%s completed in %v wall time]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *hist {
		fmt.Println(obsv.HistTable())
	}
	if *traceOut != "" {
		if err := writeTrace(obsv, *traceOut, *seed); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cxbench: %v\n", err)
	os.Exit(1)
}

// writeRowsJSON dumps an experiment's rows or artifact for CI.
func writeRowsJSON(path string, rows any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace runs the disorder probe (so the trace is guaranteed to contain
// the rare paths), writes the Chrome trace, and prints a summary. The probe
// runs after the experiments so its events are never evicted from the
// bounded ring.
func writeTrace(obsv *obs.Observer, path string, seed int64) error {
	switch r := harness.Disorder(seed, obsv); {
	case !r.Converged:
		return fmt.Errorf("disorder probe did not converge")
	case len(r.Violations) != 0:
		return fmt.Errorf("disorder probe left bad invariants: %v", r.Violations)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obsv.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d events retained (%d evicted) -> %s\n",
		len(obsv.Events()), obsv.Dropped(), path)
	fmt.Printf("trace: commit-lazy=%d commit-immediate=%d conflict-ordered=%d conflict-disordered=%d invalidate=%d l-com=%d prune=%d\n",
		obsv.PhaseCount(obs.PhaseCommitLazy), obsv.PhaseCount(obs.PhaseCommitImmediate),
		obsv.PhaseCount(obs.PhaseConflictOrdered), obsv.PhaseCount(obs.PhaseConflictDisordered),
		obsv.PhaseCount(obs.PhaseInvalidate), obsv.PhaseCount(obs.PhaseLCom),
		obsv.PhaseCount(obs.PhasePrune))
	return nil
}
