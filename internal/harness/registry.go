package harness

import (
	"fmt"
	"strings"
	"time"

	"cxfs/internal/chaos"
	"cxfs/internal/cluster"
	"cxfs/internal/stats"
)

// Experiment is one registered experiment: an ID and the run that
// produces its report.
type Experiment struct {
	ID string
	// ByNameOnly keeps the experiment out of the "all" set; it runs only
	// when named.
	ByNameOnly bool
	// Run executes the experiment. The returned Output is complete even
	// when the error is not nil: the error is a verdict on the report
	// (an inconsistent chaos run, a failed gate), not a missing one.
	Run func(Config) (Output, error)
}

// Output is what one experiment run produces.
type Output struct {
	// Text is the printable report.
	Text string
	// Rows, when not nil, is the machine-readable result worth writing as
	// JSON; RowsLabel describes it in one phrase ("4 rows").
	Rows      any
	RowsLabel string
}

// registry lists every experiment in presentation order: the paper's
// tables and figures (§IV), then this repository's extensions.
var registry = []Experiment{
	{ID: "table2", Run: tableOf(Table2)},
	{ID: "table4", Run: tableOf(Table4)},
	{ID: "table5", Run: tableOf(Table5)},
	{ID: "fig4", Run: func(cfg Config) (Output, error) { return Output{Text: Fig4(cfg).String() + "\n"}, nil }},
	{ID: "fig5", Run: tableOf(func(c Config) ([]Fig5Row, *stats.Table) { return Fig5(c, nil) })},
	{ID: "fig6", Run: tableOf(func(c Config) ([]Fig6Row, *stats.Table) { return Fig6(c, nil, 0) })},
	{ID: "fig7a", Run: tableOf(func(c Config) ([]Fig7aRow, *stats.Table) { return Fig7a(c, nil) })},
	{ID: "fig7b", Run: func(cfg Config) (Output, error) {
		series, tbl := Fig7b(cfg, 0)
		return Output{Text: tbl.String() + fmt.Sprintf("\npeak=%.0f bytes, pruning drops=%d\n\n", series.Peak(), series.Drops(0.3))}, nil
	}},
	{ID: "fig8", Run: func(cfg Config) (Output, error) {
		_, base, tbl := Fig8(cfg, nil)
		return Output{Text: tbl.String() + fmt.Sprintf("\nOFS baseline replay: %v\n\n", base.Round(time.Millisecond))}, nil
	}},
	{ID: "fig9a", Run: tableOf(func(c Config) ([]Fig9Row, *stats.Table) { return Fig9a(c, nil) })},
	{ID: "fig9b", Run: tableOf(func(c Config) ([]Fig9Row, *stats.Table) { return Fig9b(c, nil) })},
	{ID: "protocols", Run: tableOf(Protocols)},
	{ID: "metarates", Run: func(cfg Config) (Output, error) {
		rows, tbl := MetaratesGroupCommit(cfg)
		return Output{Text: tbl.String() + "\n", Rows: rows, RowsLabel: fmt.Sprintf("%d rows", len(rows))}, nil
	}},
	{ID: "statstorm", Run: func(cfg Config) (Output, error) {
		_, tbl, worst := StatStorm(cfg)
		out := Output{Text: tbl.String() + fmt.Sprintf("\nstatstorm: worst cache message reduction %.1fx\n", worst)}
		if cfg.MinRatio > 0 && worst < cfg.MinRatio {
			return out, fmt.Errorf("statstorm: cache reduction %.1fx below the -minratio gate %.1fx", worst, cfg.MinRatio)
		}
		return out, nil
	}},
	{ID: "latency", Run: tableOf(func(c Config) ([]LatencyRow, *stats.Table) { return Latency(c, "s3d") })},
	{ID: "triggers", Run: tableOf(Triggers)},
	{ID: "chaos", ByNameOnly: true, Run: runChaos},
	{ID: "replay", ByNameOnly: true, Run: func(cfg Config) (Output, error) {
		workload, seeds := cfg.Workload, cfg.Seeds
		if workload == "" {
			workload = "s3d"
		}
		if len(seeds) == 0 {
			seeds = DefaultBenchSeeds
		}
		res := ReplayBench(cfg, workload, seeds)
		return Output{
			Text: res.Table().String() + fmt.Sprintf("\nreplay: mean %.0f ops/s, %.1f allocs/op over %d seeds\n",
				res.MeanOpsPerSec, res.MeanAllocsPerOp, len(res.Seeds)),
			Rows: res, RowsLabel: "bench artifact",
		}, nil
	}},
}

// tableOf adapts an experiment whose report is its table alone.
func tableOf[R any](f func(Config) (R, *stats.Table)) func(Config) (Output, error) {
	return func(cfg Config) (Output, error) {
		_, tbl := f(cfg)
		return Output{Text: tbl.String() + "\n"}, nil
	}
}

// runChaos runs the fault-injection harness. It passes neither cfg.Servers
// nor cfg.Obs: chaos sizes its own cluster, and the report's fingerprint
// depends on that size.
func runChaos(cfg Config) (Output, error) {
	rep := chaos.Run(chaos.Config{Seed: cfg.Seed, Duration: cfg.ChaosDuration, FaultRate: cfg.FaultRate,
		Pipeline: cfg.Pipeline, GroupLinger: cfg.Linger})
	out := Output{Text: rep.String() + fmt.Sprintf("fingerprint=%s\n", rep.Fingerprint())}
	if !rep.Consistent() {
		return out, fmt.Errorf("chaos run with seed %d is inconsistent (schedule above)", cfg.Seed)
	}
	return out, nil
}

// ProtocolRow is one protocol's replay in the five-protocol comparison.
type ProtocolRow struct {
	Protocol   cluster.Protocol
	ReplayTime time.Duration
	Messages   uint64
	VsOFS      float64 // replay-time improvement over SE
}

// Protocols replays s3d under all five protocols. It goes beyond the
// paper, which describes 2PC and CE (§II.B, Fig 1) but evaluates only the
// OFS variants.
func Protocols(cfg Config) ([]ProtocolRow, *stats.Table) {
	tbl := stats.NewTable("Extension: all five protocols on s3d (replay time)",
		"Protocol", "Replay", "Messages", "vs OFS")
	var rows []ProtocolRow
	var base time.Duration
	for _, proto := range cluster.Protocols {
		res, c := cfg.replay("s3d", proto, nil, 0, nil)
		c.Shutdown()
		if proto == cluster.ProtoSE {
			base = res.ReplayTime
		}
		row := ProtocolRow{Protocol: proto, ReplayTime: res.ReplayTime, Messages: res.Messages,
			VsOFS: stats.Improvement(base, res.ReplayTime)}
		rows = append(rows, row)
		tbl.Add(string(proto), row.ReplayTime, row.Messages, stats.Pct(row.VsOFS))
	}
	return rows, tbl
}

// IDs lists every registered experiment in registry order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(IDs(), ", "))
}

// Select resolves a comma-separated list of IDs, or "all" for every
// experiment not marked ByNameOnly, in registry order.
func Select(spec string) ([]Experiment, error) {
	var out []Experiment
	if spec == "all" {
		for _, e := range registry {
			if !e.ByNameOnly {
				out = append(out, e)
			}
		}
		return out, nil
	}
	for _, id := range strings.Split(spec, ",") {
		e, err := Lookup(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
