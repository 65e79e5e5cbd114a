package main

import (
	"fmt"
	"sort"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/metarates"
	"cxfs/internal/obs"
	"cxfs/internal/trace"
)

// size scales a workload. The benchmark runs the full sizes; the
// consistency tests run tiny ones through the same code.
type size struct {
	scale      float64 // trace workloads: share of the paper trace's op count
	opsPerProc int     // metarates
}

// workload is one closed-loop benchmark input. Each is chosen to load a
// different set of layers; NOTES.md gives the layer each one stresses and
// the one it leaves idle.
type workload struct {
	name string
	why  string
	full size
	// replaySeconds is the host time one replay takes on the reference
	// machine (2 vCPU x86-64); --seconds divided by it is how many seeds a
	// run replays.
	replaySeconds float64
	// build makes the workload's inputs from seed and assembles a fresh
	// cluster around them. o is nil for untraced runs.
	build func(sz size, seed int64, o *obs.Observer) (*instance, error)
	// measuresLatency reports whether the replay itself measures per-op
	// virtual latency; when false the latencies come from a traced twin.
	measuresLatency bool
}

// instance is one built cluster with its inputs, ready to run once.
type instance struct {
	c   *cluster.Cluster
	run func() outcome
}

// outcome is what one simulated run reports about itself.
type outcome struct {
	ops       int
	tolerated int             // races the workload expects (a read of a file its owner removed)
	hard      int             // any other error: the run is wrong
	simTime   time.Duration   // virtual time from the first op to the last completion
	lat       []time.Duration // per-op virtual latency; nil when the workload cannot see it
}

var workloads = []workload{
	{
		name:            "trace-s3d",
		why:             "the paper's headline trace on Cx: update-heavy, past the 1 MB log-full point, loads core commit, the WAL direct path and namespace",
		full:            size{scale: 0.1},
		replaySeconds:   5.5,
		build:           traceBuild("s3d", cluster.ProtoCx, 0),
		measuresLatency: true,
	},
	{
		name:            "trace-s3d-se",
		why:             "the same s3d trace on the SE (OFS) baseline: the denominator of every paper ratio, and the control where core and the WAL do no work",
		full:            size{scale: 0.1},
		replaySeconds:   3.0,
		build:           traceBuild("s3d", cluster.ProtoSE, 0),
		measuresLatency: true,
	},
	{
		name:            "trace-home2-cached",
		why:             "read-heavy home2 on Cx with the leased client cache on: the only workload that loads core.Cache and lease revocation",
		full:            size{scale: 0.03},
		replaySeconds:   2.8,
		build:           traceBuild("home2", cluster.ProtoCx, 30*time.Second),
		measuresLatency: true,
	},
	{
		name:          "metarates-pipelined",
		why:           "update-dominated metarates, pipeline 8 with WAL group commit: conflict-free, and it holds the log-full C-NOTIFY flood",
		full:          size{opsPerProc: 800},
		replaySeconds: 10,
		build:         metaratesBuild,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// traceBuild replays a generated paper trace on 8 servers with the
// harness's client layout (16 hosts x 8 procs), so the simulated numbers
// line up with cxbench's replay and fig5 experiments.
func traceBuild(profile string, proto cluster.Protocol, cacheTTL time.Duration) func(size, int64, *obs.Observer) (*instance, error) {
	return func(sz size, seed int64, o *obs.Observer) (*instance, error) {
		p, err := trace.ProfileByName(profile)
		if err != nil {
			return nil, err
		}
		tr := trace.Generate(p, sz.scale, seed)
		opts := cluster.DefaultOptions(8, proto)
		opts.ClientHosts = 16
		opts.ProcsPerHost = 8
		opts.Seed = seed
		opts.CacheTTL = cacheTTL
		opts.Obs = o
		c, err := cluster.New(opts)
		if err != nil {
			return nil, err
		}
		run := func() outcome {
			r := &trace.Replayer{Trace: tr, C: c, KindLat: map[trace.Kind][]time.Duration{}}
			res := r.Run()
			out := outcome{ops: res.Ops, tolerated: res.Errors, hard: res.HardErrors, simTime: res.ReplayTime}
			for _, l := range r.KindLat {
				out.lat = append(out.lat, l...)
			}
			return out
		}
		return &instance{c: c, run: run}, nil
	}
}

// metaratesBuild is the harness's group-commit metarates layout: 4 servers,
// 16 hosts x 2 procs, 1 ms group-commit linger, 8-deep pipelines. The op
// stream is drawn inside the simulation from the cluster seed.
func metaratesBuild(sz size, seed int64, o *obs.Observer) (*instance, error) {
	opts := cluster.DefaultOptions(4, cluster.ProtoCx)
	opts.ClientHosts = 16
	opts.ProcsPerHost = 2
	opts.Seed = seed
	opts.GroupLinger = time.Millisecond
	opts.Obs = o
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	run := func() outcome {
		res := metarates.Run(c, metarates.Config{
			Mix: metarates.UpdateDominated, OpsPerProc: sz.opsPerProc, Pipeline: 8})
		// Every metarates process touches only its own files, so no error
		// is expected: all of them count as hard.
		return outcome{ops: res.Ops, hard: res.Errors, simTime: res.Elapsed}
	}
	return &instance{c: c, run: run}, nil
}

// quantile returns the q-quantile of sorted durations by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
