// Command perfbench is the repository benchmark: closed-loop workloads on
// the simulated cluster, reporting what the simulator costs the host and
// what the simulated file system achieved, end to end and per layer.
//
//	perfbench --workload trace-s3d --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 prints the per-layer metrics: counters from each layer's
// Stats(), a CPU profile folded to layers, and virtual-time spans from a
// traced twin of the run. --sweep prints the simulated results of each
// seed of harness.DefaultBenchSeeds and gates nothing. The last line of
// standard output is one JSON object; the exit code is non-zero when any
// correctness check fails. NOTES.md explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"cxfs/internal/harness"
)

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload name: trace-s3d, trace-s3d-se, trace-home2-cached or metarates-pipelined")
	seed := fs.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 30, "host seconds one run measures; sets how many seeds it replays")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	sweep := fs.Bool("sweep", false, "print simulated results per seed of harness.DefaultBenchSeeds (gates nothing)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory the folded CPU profile is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*wname)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wname, *seconds, *traced)
		return 2
	}
	if *sweep {
		return sweepSeeds(w, stdout)
	}

	seeds := w.seedsFor(*seed, time.Duration(*seconds)*time.Second)
	var res result
	if *traced == 1 {
		res, err = perLayerRun(w, w.full, seeds, *out, stdout)
	} else {
		res, err = endToEndRun(w, w.full, seeds, stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
		res.Metrics = metrics{}
	}
	line, err := json.Marshal(res)
	if err != nil { // a NaN or infinite metric
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res = result{Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics{}}
		line, _ = json.Marshal(res) // no metric left to fail
	}
	for _, name := range res.Metrics.names() {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// seedsFor derives the inputs of one run: as many seeds as replays fit in
// the measured window, starting with the seed itself and spaced far from
// any small seed a caller might pass next. The count depends only on the
// window, never on host speed, so a seed always gives the same inputs. The
// metrics are medians over these replays, which is what keeps one run's
// numbers steady on workloads whose simulated outcome moves from seed to
// seed.
func (w workload) seedsFor(seed int64, window time.Duration) []int64 {
	n := max(1, int(window.Seconds()/w.replaySeconds))
	s := make([]int64, n)
	for i := range s {
		s[i] = seed + int64(i)*1_000_003
	}
	return s
}

// pass runs the workload once per seed, traced or not. want, when set, is
// an earlier pass over the same seeds whose simulated timelines this one
// must reproduce bit for bit.
func pass(w workload, sz size, seeds []int64, traced bool, want []sample) ([]sample, error) {
	ss := make([]sample, 0, len(seeds))
	for i, sd := range seeds {
		s, err := runOnce(w, sz, sd, traced)
		if err != nil {
			return ss, err
		}
		if want != nil && s.fp != want[i].fp {
			return ss, fmt.Errorf("%s seed %d: simulated timeline moved: %+v, first run %+v", w.name, sd, s.fp, want[i].fp)
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// printReplays prints each replay's fingerprint, which must repeat bit for
// bit on every run of the same seed, and then its host costs, which vary.
func printReplays(stdout io.Writer, w workload, ss []sample) {
	for _, s := range ss {
		fp, _ := json.Marshal(s.fp) // integers only
		fmt.Fprintf(stdout, "fingerprint %s seed=%d %s\n", w.name, s.seed, fp)
	}
	for _, s := range ss {
		fmt.Fprintf(stdout, "host %s seed=%d wall_s=%.3f cpu_s=%.3f allocs_per_op=%.2f setup_s=%v\n", w.name, s.seed,
			s.wall.Seconds(), s.cpu.Seconds(), float64(s.mallocs)/float64(s.ops), s.setups)
	}
}

// endToEndRun measures the workload with tracing off, one replay per seed.
func endToEndRun(w workload, sz size, seeds []int64, stdout io.Writer) (result, error) {
	ss, err := pass(w, sz, seeds, false, nil)
	if err != nil {
		return result{}, err
	}
	printReplays(stdout, w, ss)
	if !w.measuresLatency {
		// The per-op latencies come from the op spans of a traced twin,
		// which must reproduce the untraced timeline exactly.
		traced, err := pass(w, sz, seeds, true, ss)
		if err != nil {
			return result{}, err
		}
		for i := range ss {
			ss[i].lat = traced[i].spans.all
		}
	}
	res := result{Correct: true, Metrics: endToEnd(ss)}
	for _, s := range ss {
		res.Attempted += s.ops
		res.Failed += s.hard
	}
	return res, nil
}

// perLayerRun profiles one untraced pass, then reruns it traced for the
// virtual-time spans. The counters and the profile come from the untraced
// pass, so they describe the program as the end-to-end run measures it.
func perLayerRun(w workload, sz size, seeds []int64, outDir string, stdout io.Writer) (result, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	ss, err := pass(w, sz, seeds, false, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	printReplays(stdout, w, ss)
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return result{}, err
	}
	cf := fold(prof)
	if cf.total == 0 {
		return result{}, errors.New("cpu profile holds no samples")
	}
	if err := writeFoldedFile(outDir, fmt.Sprintf("%s-seed%d.folded.txt", w.name, seeds[0]), prof, cf, stdout); err != nil {
		return result{}, err
	}
	traced, err := pass(w, sz, seeds, true, ss)
	if err != nil {
		return result{}, err
	}
	t := sum(ss)
	return result{Correct: true, Attempted: t.ops, Failed: t.hard, Metrics: perLayer(t, cf, traced)}, nil
}

func writeFoldedFile(dir, name string, prof *cpuProfile, cf cpuFold, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	writeFolded(f, prof, cf)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "folded cpu profile: %s\n", path)
	return nil
}

// sweepSeeds replays the workload once on each seed of the committed bench
// matrix and prints its simulated results, so that seed-to-seed spread is
// not mistaken for run-to-run noise. It gates nothing; it fails only on a
// correctness check.
func sweepSeeds(w workload, stdout io.Writer) int {
	code := 0
	for _, seed := range harness.DefaultBenchSeeds {
		res, err := endToEndRun(w, w.full, []int64{seed}, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			code = 1
			continue
		}
		m := res.Metrics
		fmt.Fprintf(stdout, "sweep %s seed=%d sim_ops_per_s=%.1f sim_mean_ms=%.4f sim_p99_ms=%.4f msgs_per_op=%.4f\n",
			w.name, seed, m["sim_ops_per_s"].Value, m["sim_mean_ms"].Value, m["sim_p99_ms"].Value, m["msgs_per_op"].Value)
	}
	return code
}
