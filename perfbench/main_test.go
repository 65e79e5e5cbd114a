package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// tiny sizes run every workload through the benchmark's own code paths in
// about a second each. They sit below the log-full point, so they check the
// accounting, not the paper's numbers.
var tiny = map[string]size{
	"trace-s3d":           {scale: 0.01},
	"trace-s3d-se":        {scale: 0.01},
	"trace-home2-cached":  {scale: 0.003},
	"metarates-pipelined": {opsPerProc: 100},
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecWorkloadsExist(t *testing.T) {
	for _, sw := range loadSpec(t).Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.why != sw.Why {
			t.Errorf("%s: BENCHMARK.json why %q, program says %q", sw.Name, sw.Why, w.why)
		}
	}
}

// checkNames asserts that a run emitted exactly the metrics the spec names,
// each with the spec's unit.
func checkNames(t *testing.T, got metrics, want []specMetric) {
	t.Helper()
	for _, sm := range want {
		m, ok := got[sm.Name]
		if !ok {
			t.Errorf("metric %s not emitted", sm.Name)
			continue
		}
		if m.Unit != sm.Unit {
			t.Errorf("metric %s: unit %q, spec says %q", sm.Name, m.Unit, sm.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: value %v", sm.Name, m.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, spec names %d", len(got), len(want))
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestCounterConsistency runs each workload end to end and per layer on the
// same seed and checks that the layers' counters add up to the end-to-end
// totals.
func TestCounterConsistency(t *testing.T) {
	sp := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sz := tiny[w.name]
			seeds := []int64{1}
			e2e, err := endToEndRun(w, sz, seeds, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := perLayerRun(w, sz, seeds, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || !pl.Correct || e2e.Attempted != pl.Attempted || e2e.Attempted == 0 {
				t.Fatalf("runs disagree: end-to-end %+v, per-layer correct=%v attempted=%d", e2e, pl.Correct, pl.Attempted)
			}
			checkNames(t, e2e.Metrics, sp.EndToEnd)
			checkNames(t, pl.Metrics, sp.PerLayer)
			m := pl.Metrics

			var families float64
			for group := range msgGroups {
				families += m["transport.msgs_"+group+"_per_op"].Value
			}
			msgs := e2e.Metrics["msgs_per_op"].Value
			if !near(families, msgs) || !near(m["transport.msgs_per_op"].Value, msgs) {
				t.Errorf("message families sum to %v per op, transport total %v, end-to-end %v",
					families, m["transport.msgs_per_op"].Value, msgs)
			}

			// Every WAL append and every flushed kvstore page is its own disk
			// request. kvstore sync writes count rows, and one journal
			// request carries all the rows of a sub-op, so they bound
			// nothing here.
			disk := m["disk.requests_per_op"].Value
			walKV := m["wal.appends_per_op"].Value + m["kvstore.flush_pages_per_op"].Value
			if disk < walKV-1e-9 {
				t.Errorf("disk requests %v per op < WAL appends + kvstore flushed pages %v", disk, walKV)
			}

			var shares float64
			for _, l := range cpuLayers {
				shares += m[l+".cpu_share"].Value
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("cpu_share buckets sum to %v", shares)
			}
			if d := m["transport.dropped"].Value; d != 0 {
				t.Errorf("transport dropped %v messages", d)
			}
		})
	}
}

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{fn: "runtime.scanobject"}, {fn: "runtime.gcDrain"}, {fn: "runtime.gcBgMarkWorker"}}, "runtime.gc"},
		{[]frame{{fn: "runtime.mallocgc"}, {fn: "cxfs/internal/core.(*Server).runCommit", file: "/src/internal/core/commit.go"},
			{fn: "cxfs/internal/simrt.(*Sim).Spawn.func1"}}, "core.commit"},
		{[]frame{{fn: "cxfs/internal/core.(*Server).handleSubOp", file: "/src/internal/core/core.go"}}, "core.exec"},
		{[]frame{{fn: "cxfs/internal/core.(*Cache).Get", file: "/src/internal/core/cache.go"}}, "core.cache"},
		{[]frame{{fn: "cxfs/internal/simrt.(*Chan[...]).Recv"}}, "simrt"},
		{[]frame{{fn: "cxfs/internal/types.OpKind.String"}, {fn: "cxfs/internal/wal.(*WAL).Append"}}, "other"},
		{[]frame{{fn: "cxfs/internal/trace.(*Replayer).playOne"}}, "driver"},
		{[]frame{{fn: "main.runOnce"}}, "driver"},
		{[]frame{{fn: "runtime.futex"}, {fn: "runtime.schedule"}}, "runtime.sched"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
