// Package harness regenerates every table and figure of the paper's
// evaluation (§IV). Each experiment builds the clusters it needs, drives
// the workload, and returns both structured results and a formatted table
// whose rows mirror what the paper reports. EXPERIMENTS.md records the
// paper-vs-measured comparison for each.
//
// Absolute numbers differ from the paper — the substrate is a calibrated
// simulator, not the authors' 32-node testbed — but each experiment
// preserves the published shape: who wins, by roughly what factor, and
// where crossovers fall.
package harness

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/metarates"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/stats"
	"cxfs/internal/trace"
	"cxfs/internal/types"
)

// Config scales the experiments. Scale is the fraction of each paper
// trace's operation count to replay (1.0 = full size; the default keeps a
// laptop run under a minute per experiment).
type Config struct {
	Scale   float64
	Servers int   // trace-driven experiments (paper: 8)
	Seed    int64 //
	// Obs attaches an observability session to every cluster the
	// experiment builds; nil disables recording.
	Obs *obs.Observer

	// Knobs read by single experiments. Zero values keep each
	// experiment's defaults.
	Pipeline      int           // metarates (default 8), chaos: client dispatch depth
	Linger        time.Duration // metarates (default 1ms), chaos: WAL group-commit linger
	Adaptive      bool          // metarates: add the adaptive-lazy-period row
	Workload      string        // replay: trace profile (default s3d)
	Seeds         []int64       // replay: seed matrix (default DefaultBenchSeeds)
	MinRatio      float64       // statstorm: fail below this cache message reduction
	ChaosDuration time.Duration // chaos: nemesis active window (default 1.5s)
	FaultRate     float64       // chaos: lossy-link probability scale (default 1.0)
}

// DefaultConfig is the quick-run configuration.
func DefaultConfig() Config {
	return Config{Scale: 0.004, Servers: 8, Seed: 1}
}

// clusterFor builds a trace-capable cluster for the given protocol.
func (cfg Config) clusterFor(proto cluster.Protocol, mutate func(*cluster.Options)) *cluster.Cluster {
	o := cluster.DefaultOptions(cfg.Servers, proto)
	// Enough processes for the largest profile (lair62b: 128).
	o.ClientHosts = 16
	o.ProcsPerHost = 8
	o.Seed = cfg.Seed
	o.Obs = cfg.Obs
	if mutate != nil {
		mutate(&o)
	}
	return cluster.MustNew(o)
}

// replay generates and replays one workload on one protocol.
func (cfg Config) replay(name string, proto cluster.Protocol, mutate func(*cluster.Options), extraReads float64, background []func(*simrt.Proc)) (trace.Result, *cluster.Cluster) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	tr := trace.Generate(p, cfg.Scale, cfg.Seed)
	c := cfg.clusterFor(proto, mutate)
	r := &trace.Replayer{Trace: tr, C: c, ExtraSharedReads: extraReads, Background: background}
	res := r.Run()
	return res, c
}

// Table2Row is one workload's conflict measurement.
type Table2Row struct {
	Workload      string
	TotalOps      int
	PaperOps      int
	ConflictRatio float64
	PaperRatio    float64
}

// paperConflictRatios holds Table II's published values.
var paperConflictRatios = map[string]float64{
	"CTH": 0.00112, "s3d": 0.00322, "alegra": 0.00623,
	"home2": 0.00669, "deasna2": 0.02972, "lair62b": 0.01571,
}

// paperTotalOps holds Table II's published operation counts.
var paperTotalOps = map[string]int{
	"CTH": 505247, "s3d": 724818, "alegra": 404812,
	"home2": 2720599, "deasna2": 3888022, "lair62b": 11057516,
}

// Table2 measures the conflict ratio of each workload under Cx — the
// paper's Table II.
func Table2(cfg Config) ([]Table2Row, *stats.Table) {
	var rows []Table2Row
	tbl := stats.NewTable("Table II: conflict ratio in various workloads",
		"Trace", "Total Ops", "Conflict", "Paper Ops", "Paper Conflict")
	for _, p := range trace.Profiles() {
		res, c := cfg.replay(p.Name, cluster.ProtoCx, nil, 0, nil)
		c.Shutdown()
		row := Table2Row{
			Workload: p.Name, TotalOps: res.Ops, PaperOps: paperTotalOps[p.Name],
			ConflictRatio: res.ConflictRatio(), PaperRatio: paperConflictRatios[p.Name],
		}
		rows = append(rows, row)
		tbl.Add(row.Workload, row.TotalOps, stats.Pct(row.ConflictRatio),
			row.PaperOps, stats.Pct(row.PaperRatio))
	}
	return rows, tbl
}

// Table4Row is one workload's message-overhead measurement.
type Table4Row struct {
	Workload string
	MsgsOFS  uint64
	MsgsCx   uint64
	Overhead float64 // (Cx-OFS)/OFS; paper: 1.0%-3.1%
}

// Table4 compares message counts of OFS and OFS-Cx across the six traces —
// the paper's Table IV.
func Table4(cfg Config) ([]Table4Row, *stats.Table) {
	var rows []Table4Row
	tbl := stats.NewTable("Table IV: messages generated in the trace replays",
		"Trace", "OFS", "OFS+Cx", "Overhead", "Paper")
	paper := map[string]float64{
		"CTH": 0.022, "s3d": 0.030, "alegra": 0.010,
		"home2": 0.031, "deasna2": 0.024, "lair62b": 0.023,
	}
	for _, p := range trace.Profiles() {
		resOFS, cA := cfg.replay(p.Name, cluster.ProtoSE, nil, 0, nil)
		cA.Shutdown()
		resCx, cB := cfg.replay(p.Name, cluster.ProtoCx, nil, 0, nil)
		cB.Shutdown()
		row := Table4Row{
			Workload: p.Name, MsgsOFS: resOFS.Messages, MsgsCx: resCx.Messages,
			Overhead: float64(resCx.Messages)/float64(resOFS.Messages) - 1,
		}
		rows = append(rows, row)
		tbl.Add(row.Workload, row.MsgsOFS, row.MsgsCx, stats.Pct(row.Overhead), stats.Pct(paper[p.Name]))
	}
	return rows, tbl
}

// Table5Row is one recovery measurement.
type Table5Row struct {
	ValidKB      int64
	RecoveryTime time.Duration
	PaperSeconds int
}

// Table5 measures recovery time as a function of the crashed server's
// valid-record size — the paper's Table V (5KB->3s ... 1000KB->17s, growing
// ~3x while the backlog grows 100x).
func Table5(cfg Config) ([]Table5Row, *stats.Table) {
	paper := map[int64]int{5: 3, 10: 6, 50: 8, 100: 10, 500: 12, 1000: 17}
	targets := []int64{5, 10, 50, 100, 500, 1000}
	var rows []Table5Row
	tbl := stats.NewTable("Table V: recovery time vs valid-records size",
		"Valid-Records", "Recovery", "Paper")
	for _, kb := range targets {
		d := recoveryRun(cfg, kb<<10)
		row := Table5Row{ValidKB: kb, RecoveryTime: d, PaperSeconds: paper[kb]}
		rows = append(rows, row)
		tbl.Add(stats.KB(kb<<10), d, fmt.Sprintf("%ds", paper[kb]))
	}
	return rows, tbl
}

// recoveryRun builds a pending backlog of the target size on server 0,
// crashes it, reboots it, and measures the §V recovery procedure.
func recoveryRun(cfg Config, targetBytes int64) time.Duration {
	o := cluster.DefaultOptions(cfg.Servers, cluster.ProtoCx)
	o.ClientHosts = 8
	o.ProcsPerHost = 4
	o.Seed = cfg.Seed
	o.Cx.Timeout = 0           // no lazy trigger: the backlog stays pending
	o.Hardware.LogMaxBytes = 0 // unlimited, we control the size
	c := cluster.MustNew(o)
	defer c.Shutdown()

	var recovery time.Duration
	c.Sim.Spawn("recovery-exp", func(p *simrt.Proc) {
		// Build backlog: cross-server creates coordinated by server 0.
		pr := c.Proc(0)
		srv := c.CxSrv[0]
		for i := 0; srv.ValidBytes() < targetBytes; i++ {
			name := fmt.Sprintf("r%06d", i)
			ino := pr.AllocInode()
			// Only issue creates whose coordinator is server 0 and whose
			// participant is remote, so the backlog lands where we crash.
			if c.Placement.CoordinatorFor(types.RootInode, name) != 0 ||
				c.Placement.ParticipantFor(ino) == 0 {
				continue
			}
			if _, err := pr.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
				Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
				panic(err)
			}
		}
		p.Sleep(50 * time.Millisecond) // let responses drain
		c.Bases[0].Crash()
		p.Sleep(100 * time.Millisecond) // failure detection window
		c.Bases[0].Reboot()
		recovery = c.CxSrv[0].Recover(p)
		c.Sim.Stop()
	})
	c.Sim.Run()
	return recovery
}

// Fig4 returns the operation-mix distribution of each workload.
func Fig4(cfg Config) *stats.Table {
	kinds := []types.OpKind{types.OpCreate, types.OpRemove, types.OpMkdir, types.OpRmdir,
		types.OpLink, types.OpUnlink, types.OpStat, types.OpLookup, types.OpSetAttr}
	header := []string{"Trace", "Ops"}
	for _, k := range kinds {
		header = append(header, k.String())
	}
	tbl := stats.NewTable("Figure 4: metadata operation distribution", header...)
	for _, p := range trace.Profiles() {
		tr := trace.Generate(p, cfg.Scale, cfg.Seed)
		dist := tr.Distribution()
		cells := []any{p.Name, tr.Total}
		for _, k := range kinds {
			cells = append(cells, stats.Pct(float64(dist[k])/float64(tr.Total)))
		}
		tbl.Add(cells...)
	}
	return tbl
}

// Fig5Row is one workload's replay-time comparison.
type Fig5Row struct {
	Workload    string
	OFS         time.Duration
	OFSBatched  time.Duration
	OFSCx       time.Duration
	CxOverOFS   float64 // paper: >=0.38 everywhere, >0.50 on s3d
	CxOverBatch float64 // paper: >=0.16
}

// Fig5 runs the trace-driven evaluation: replay time of OFS, OFS-batched,
// and OFS-Cx on each workload (8 servers) — the paper's Figure 5.
func Fig5(cfg Config, workloads []string) ([]Fig5Row, *stats.Table) {
	if workloads == nil {
		for _, p := range trace.Profiles() {
			workloads = append(workloads, p.Name)
		}
	}
	var rows []Fig5Row
	tbl := stats.NewTable("Figure 5: trace-driven evaluation (replay time)",
		"Trace", "OFS", "OFS-batched", "OFS-Cx", "Cx vs OFS", "Cx vs batched")
	for _, name := range workloads {
		resSE, cA := cfg.replay(name, cluster.ProtoSE, nil, 0, nil)
		cA.Shutdown()
		resB, cB := cfg.replay(name, cluster.ProtoSEBatched, nil, 0, nil)
		cB.Shutdown()
		resCx, cC := cfg.replay(name, cluster.ProtoCx, nil, 0, nil)
		cC.Shutdown()
		row := Fig5Row{
			Workload: name, OFS: resSE.ReplayTime, OFSBatched: resB.ReplayTime, OFSCx: resCx.ReplayTime,
			CxOverOFS:   stats.Improvement(resSE.ReplayTime, resCx.ReplayTime),
			CxOverBatch: stats.Improvement(resB.ReplayTime, resCx.ReplayTime),
		}
		rows = append(rows, row)
		tbl.Add(name, row.OFS, row.OFSBatched, row.OFSCx,
			stats.Pct(row.CxOverOFS), stats.Pct(row.CxOverBatch))
	}
	return rows, tbl
}

// Fig6Row is one cluster size's throughput comparison for one mix.
type Fig6Row struct {
	Mix        string
	Servers    int
	OFS        float64
	OFSBatched float64
	OFSCx      float64
	CxGain     float64 // throughput gain over OFS; paper: >=0.70 update, >=0.40 read
}

// Fig6 runs the Metarates benchmark across cluster sizes for both mixes —
// the paper's Figure 6. opsPerProc controls run length.
func Fig6(cfg Config, serverCounts []int, opsPerProc int) ([]Fig6Row, *stats.Table) {
	if serverCounts == nil {
		serverCounts = []int{4, 8, 16, 32}
	}
	if opsPerProc == 0 {
		opsPerProc = 40
	}
	var rows []Fig6Row
	tbl := stats.NewTable("Figure 6: Metarates aggregated throughput (ops/s)",
		"Mix", "Servers", "OFS", "OFS-batched", "OFS-Cx", "Cx vs OFS")
	for _, mix := range []metarates.Mix{metarates.UpdateDominated, metarates.ReadDominated} {
		for _, n := range serverCounts {
			tput := map[cluster.Protocol]float64{}
			for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.ProtoSEBatched, cluster.ProtoCx} {
				o := cluster.DefaultOptions(n, proto)
				o.Seed = cfg.Seed
				c := cluster.MustNew(o)
				res := metarates.Run(c, metarates.Config{Mix: mix, OpsPerProc: opsPerProc})
				tput[proto] = res.Throughput
				c.Shutdown()
			}
			row := Fig6Row{
				Mix: mix.Name, Servers: n,
				OFS: tput[cluster.ProtoSE], OFSBatched: tput[cluster.ProtoSEBatched], OFSCx: tput[cluster.ProtoCx],
				CxGain: stats.Ratio(tput[cluster.ProtoSE], tput[cluster.ProtoCx]),
			}
			rows = append(rows, row)
			tbl.Add(mix.Name, n, fmt.Sprintf("%.0f", row.OFS), fmt.Sprintf("%.0f", row.OFSBatched),
				fmt.Sprintf("%.0f", row.OFSCx), stats.Pct(row.CxGain))
		}
	}
	return rows, tbl
}

// Fig7aRow is one log-size limit's replay time.
type Fig7aRow struct {
	LimitBytes int64 // 0 = unlimited
	ReplayTime time.Duration
}

// Fig7a sweeps the log-size upper limit on home2 — the paper's Figure 7a
// (larger logs -> fewer forced commitments -> faster).
func Fig7a(cfg Config, limits []int64) ([]Fig7aRow, *stats.Table) {
	if limits == nil {
		limits = []int64{16 << 10, 32 << 10, 64 << 10, 256 << 10, 1 << 20, 0}
	}
	var rows []Fig7aRow
	tbl := stats.NewTable("Figure 7a: impact of the log-size upper limit (home2)",
		"Limit", "Replay time")
	for _, lim := range limits {
		lim := lim
		res, c := cfg.replay("home2", cluster.ProtoCx, func(o *cluster.Options) {
			o.Hardware.LogMaxBytes = lim
		}, 0, nil)
		c.Shutdown()
		label := "unlimited"
		if lim > 0 {
			label = stats.KB(lim)
		}
		rows = append(rows, Fig7aRow{LimitBytes: lim, ReplayTime: res.ReplayTime})
		tbl.Add(label, res.ReplayTime)
	}
	return rows, tbl
}

// Fig7b samples the valid-records size during a home2 replay with an
// unlimited log — the paper's Figure 7b (rise to a peak, then periodic
// drops at every timeout-triggered batch commitment). The sampling runs
// through the generic observability layer: a dedicated observer with
// SampleEvery set, whose "wal-live-bytes" series is exactly the paper's
// valid-records quantity (the replayer spawns the cluster sampler
// automatically).
func Fig7b(cfg Config, interval time.Duration) (*stats.Series, *stats.Table) {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	// A local observer, not cfg.Obs: this figure needs its own clean series
	// regardless of what session-wide recording is attached.
	obsv := obs.New(obs.Options{SampleEvery: interval})
	_, c := cfg.replay("home2", cluster.ProtoCx, func(o *cluster.Options) {
		o.Hardware.LogMaxBytes = 0
		o.Cx.Timeout = 2 * time.Second // scaled-down 10s trigger
		o.Obs = obsv
	}, 0, nil)
	c.Shutdown()

	series := obsv.Series("wal-live-bytes")
	if series == nil {
		series = &stats.Series{Name: "wal-live-bytes"}
	}
	tbl := stats.NewTable("Figure 7b: valid-records size over time (home2, unlimited log)",
		"t", "bytes")
	for _, pt := range series.Points {
		tbl.Add(pt.T, fmt.Sprintf("%.0f", pt.V))
	}
	return series, tbl
}

// Fig8Row is one injected-conflict level.
type Fig8Row struct {
	InjectRate    float64
	ConflictRatio float64
	CxReplay      time.Duration
	MsgOverhead   float64 // vs the OFS baseline at the same injection
}

// Fig8 sweeps injected conflict ratios on home2 and reports Cx replay time
// and message overhead against the OFS baseline — the paper's Figure 8
// (Cx wins until the conflict ratio approaches ~20%).
func Fig8(cfg Config, rates []float64) ([]Fig8Row, time.Duration, *stats.Table) {
	if rates == nil {
		rates = []float64{0, 0.05, 0.12, 0.25, 0.5, 0.9}
	}
	resOFS, cO := cfg.replay("home2", cluster.ProtoSE, nil, 0, nil)
	cO.Shutdown()
	var rows []Fig8Row
	tbl := stats.NewTable(
		fmt.Sprintf("Figure 8: impact of conflict ratios (home2; OFS baseline %v)", resOFS.ReplayTime.Round(time.Millisecond)),
		"Injected", "Conflict ratio", "Cx replay", "Msg overhead", "Beats OFS")
	for _, rate := range rates {
		res, c := cfg.replay("home2", cluster.ProtoCx, nil, rate, nil)
		c.Shutdown()
		row := Fig8Row{
			InjectRate:    rate,
			ConflictRatio: res.ConflictRatio(),
			CxReplay:      res.ReplayTime,
			MsgOverhead:   float64(res.Messages)/float64(resOFS.Messages) - 1,
		}
		rows = append(rows, row)
		tbl.Add(fmt.Sprintf("%.2f", rate), stats.Pct(row.ConflictRatio), row.CxReplay,
			stats.Pct(row.MsgOverhead), fmt.Sprintf("%v", row.CxReplay < resOFS.ReplayTime))
	}
	return rows, resOFS.ReplayTime, tbl
}

// Fig9Row is one trigger setting's replay time.
type Fig9Row struct {
	Setting    string
	ReplayTime time.Duration
}

// Fig9a sweeps the timeout trigger on home2 with an unlimited log — the
// paper's Figure 9a (longer timeouts batch more and run faster, optimal
// when no lazy commitment fires during the replay at all).
func Fig9a(cfg Config, timeouts []time.Duration) ([]Fig9Row, *stats.Table) {
	if timeouts == nil {
		timeouts = []time.Duration{50 * time.Millisecond, 200 * time.Millisecond,
			800 * time.Millisecond, 3200 * time.Millisecond, 12800 * time.Millisecond}
	}
	var rows []Fig9Row
	tbl := stats.NewTable("Figure 9a: timeout-trigger sensitivity (home2, unlimited log)",
		"Timeout", "Replay time")
	for _, to := range timeouts {
		to := to
		res, c := cfg.replay("home2", cluster.ProtoCx, func(o *cluster.Options) {
			o.Hardware.LogMaxBytes = 0
			o.Cx.Timeout = to
		}, 0, nil)
		c.Shutdown()
		rows = append(rows, Fig9Row{Setting: to.String(), ReplayTime: res.ReplayTime})
		tbl.Add(to, res.ReplayTime)
	}
	return rows, tbl
}

// Fig9b sweeps the threshold trigger — the paper's Figure 9b.
func Fig9b(cfg Config, thresholds []int) ([]Fig9Row, *stats.Table) {
	if thresholds == nil {
		thresholds = []int{4, 16, 64, 256, 1024}
	}
	var rows []Fig9Row
	tbl := stats.NewTable("Figure 9b: threshold-trigger sensitivity (home2, unlimited log)",
		"Threshold", "Replay time")
	for _, th := range thresholds {
		th := th
		res, c := cfg.replay("home2", cluster.ProtoCx, func(o *cluster.Options) {
			o.Hardware.LogMaxBytes = 0
			o.Cx.Timeout = 0
			o.Cx.Threshold = th
		}, 0, nil)
		c.Shutdown()
		rows = append(rows, Fig9Row{Setting: fmt.Sprintf("%d", th), ReplayTime: res.ReplayTime})
		tbl.Add(th, res.ReplayTime)
	}
	return rows, tbl
}
