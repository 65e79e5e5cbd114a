package harness

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/metarates"
	"cxfs/internal/obs"
	"cxfs/internal/stats"
)

// MetaratesGCRow is one configuration's Metarates measurement in the
// group-commit/pipelining comparison.
type MetaratesGCRow struct {
	Setting    string        `json:"setting"`
	Mix        string        `json:"mix"`
	Pipeline   int           `json:"pipeline"`
	Linger     time.Duration `json:"linger_ns"`
	Adaptive   bool          `json:"adaptive"`
	Ops        int           `json:"ops"`
	Throughput float64       `json:"ops_per_sec"`
	WALAppends uint64        `json:"wal_appends"`
	WALRecords uint64        `json:"wal_records"`
	Coalesce   float64       `json:"coalesce_ratio"`
	Errors     int           `json:"errors"`
}

// metaratesOpsPerProc is each client process's operation count.
const metaratesOpsPerProc = 40

// MetaratesGroupCommit runs the Metarates update-dominated mix on Cx across
// the commitment/dispatch configurations this repo adds over the paper:
// eager commitment (threshold 1), the paper's lazy commitment, lazy with
// cross-proc WAL group commit, and group commit plus pipelined client
// dispatch. The geometry is fixed at 4 servers with 8 concurrent client
// processes per server, so every row faces identical load; ops/s,
// WAL-issued disk requests, and the coalesce ratio expose where each
// mechanism earns its keep.
func MetaratesGroupCommit(cfg Config) ([]MetaratesGCRow, *stats.Table) {
	depth, linger := cfg.Pipeline, cfg.Linger
	if depth <= 0 {
		depth = 8
	}
	if linger <= 0 {
		linger = time.Millisecond
	}

	type variant struct {
		name     string
		linger   time.Duration
		pipeline int
		eager    bool
		adaptive bool
	}
	variants := []variant{
		{name: "eager", eager: true},
		{name: "lazy"},
		{name: "lazy+group-commit", linger: linger},
		{name: "lazy+group-commit+pipeline", linger: linger, pipeline: depth},
	}
	if cfg.Adaptive {
		variants = append(variants, variant{name: "lazy+gc+pipe+adaptive",
			linger: linger, pipeline: depth, adaptive: true})
	}

	var rows []MetaratesGCRow
	tbl := stats.NewTable("Metarates: group commit and pipelined dispatch (update-dominated, 4 servers)",
		"Setting", "ops/s", "WAL appends", "WAL records", "Coalesce", "Errors")
	for _, v := range variants {
		obsv := obs.New(obs.Options{})
		co := cluster.DefaultOptions(4, cluster.ProtoCx)
		co.ClientHosts = 16
		co.ProcsPerHost = 2
		co.Seed = cfg.Seed
		co.Obs = obsv
		co.GroupLinger = v.linger
		if v.eager {
			co.Cx.Threshold = 1
		}
		co.Cx.AdaptiveLazy = v.adaptive
		c := cluster.MustNew(co)
		res := metarates.Run(c, metarates.Config{
			Mix: metarates.UpdateDominated, OpsPerProc: metaratesOpsPerProc, Pipeline: v.pipeline})
		var appends, records uint64
		for _, b := range c.Bases {
			ws := b.WAL.Stats()
			appends += ws.Appends
			records += ws.Records
		}
		coalesce := obsv.FlushStats().CoalesceRatio()
		c.Shutdown()

		row := MetaratesGCRow{
			Setting: v.name, Mix: metarates.UpdateDominated.Name,
			Pipeline: v.pipeline, Linger: v.linger, Adaptive: v.adaptive,
			Ops: res.Ops, Throughput: res.Throughput,
			WALAppends: appends, WALRecords: records,
			Coalesce: coalesce, Errors: res.Errors,
		}
		rows = append(rows, row)
		tbl.Add(v.name, fmt.Sprintf("%.0f", row.Throughput), row.WALAppends,
			row.WALRecords, fmt.Sprintf("%.2f", row.Coalesce), row.Errors)
	}
	return rows, tbl
}
