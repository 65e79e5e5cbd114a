package harness

import (
	"fmt"
	"runtime"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/stats"
	"cxfs/internal/trace"
)

// The BENCH trajectory: each PR that touches a hot path commits a
// BENCH_<n>.json produced by ReplayBench, and CI diffs the candidate run
// against the committed artifact. Two metrics with different trust levels:
//
//   - allocs/op is a property of the code, not the machine — it is stable
//     across runners and regressions in it are hard CI failures;
//   - ops/s (wall-clock) depends on the host, so CI only annotates when it
//     moves; the committed values still chart the trajectory on the
//     reference machine.

// BenchSeed is one seed's replay measurement.
type BenchSeed struct {
	Seed        int64         `json:"seed"`
	Ops         int           `json:"ops"`
	WallMS      float64       `json:"wall_ms"`
	OpsPerSec   float64       `json:"ops_per_sec"`
	AllocsPerOp float64       `json:"allocs_per_op"`
	VirtualTime time.Duration `json:"virtual_ns"`
	Messages    uint64        `json:"messages"`
}

// BenchResult is the committed BENCH_*.json payload.
type BenchResult struct {
	Workload        string      `json:"workload"`
	Scale           float64     `json:"scale"`
	Servers         int         `json:"servers"`
	Protocol        string      `json:"protocol"`
	GoVersion       string      `json:"go_version"`
	Seeds           []BenchSeed `json:"seeds"`
	MeanOpsPerSec   float64     `json:"mean_ops_per_sec"`
	MeanAllocsPerOp float64     `json:"mean_allocs_per_op"`
}

// DefaultBenchSeeds is the fixed seed matrix of the trajectory. Committed
// artifacts and CI candidates must use the same matrix or the comparison is
// meaningless.
var DefaultBenchSeeds = []int64{1, 2, 3, 5, 8}

// ReplayBench replays one workload once per seed on the Cx cluster and
// measures wall-clock throughput and allocations per operation. The
// simulation's virtual-time results (latency, messages) are deterministic
// per seed; the wall-clock and allocation numbers measure the simulator
// itself — the thing the hot-path work optimizes.
func ReplayBench(cfg Config, workload string, seeds []int64) BenchResult {
	out := BenchResult{
		Workload:  workload,
		Scale:     cfg.Scale,
		Servers:   cfg.Servers,
		Protocol:  string(cluster.ProtoCx),
		GoVersion: runtime.Version(),
	}
	p, err := trace.ProfileByName(workload)
	if err != nil {
		panic(err)
	}
	var sumOps, sumAllocs float64
	for _, seed := range seeds {
		tr := trace.Generate(p, cfg.Scale, seed)
		sc := cfg
		sc.Seed = seed
		c := sc.clusterFor(cluster.ProtoCx, nil)

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res := (&trace.Replayer{Trace: tr, C: c}).Run()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		c.Shutdown()

		row := BenchSeed{
			Seed:        seed,
			Ops:         res.Ops,
			WallMS:      float64(wall.Microseconds()) / 1e3,
			OpsPerSec:   float64(res.Ops) / wall.Seconds(),
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(res.Ops),
			VirtualTime: res.ReplayTime,
			Messages:    res.Messages,
		}
		out.Seeds = append(out.Seeds, row)
		sumOps += row.OpsPerSec
		sumAllocs += row.AllocsPerOp
	}
	n := float64(len(seeds))
	out.MeanOpsPerSec = sumOps / n
	out.MeanAllocsPerOp = sumAllocs / n
	return out
}

// Table renders the bench result for terminal output.
func (b BenchResult) Table() *stats.Table {
	tbl := stats.NewTable(
		fmt.Sprintf("Replay bench: %s @ scale %g, %d servers, %s",
			b.Workload, b.Scale, b.Servers, b.Protocol),
		"Seed", "Ops", "Wall", "Ops/s", "Allocs/op", "Virtual", "Msgs")
	for _, s := range b.Seeds {
		tbl.Add(fmt.Sprint(s.Seed), s.Ops,
			time.Duration(s.WallMS*1e6).Round(time.Millisecond),
			fmt.Sprintf("%.0f", s.OpsPerSec),
			fmt.Sprintf("%.1f", s.AllocsPerOp),
			s.VirtualTime.Round(time.Millisecond), s.Messages)
	}
	tbl.Add("mean", "", "", fmt.Sprintf("%.0f", b.MeanOpsPerSec),
		fmt.Sprintf("%.1f", b.MeanAllocsPerOp), "", "")
	return tbl
}
