package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"cxfs/internal/obs"
)

// sample is one simulated run: what the simulation did and what it cost the
// host.
type sample struct {
	outcome
	seed    int64
	fp      fingerprint
	delta   counters
	simSpan time.Duration // virtual time of the whole run, setup and final quiesce included
	servers int
	spans   spans // traced runs only

	setups     []time.Duration // input generation plus cluster.New, once per build
	wall       time.Duration   // host wall time of the run
	cpu        time.Duration   // user+sys CPU of the process during the run
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// setupRepeats is how many times runOnce builds the workload. It runs the
// last build; timing every build gives setup_s a median over dozens of
// builds per run, steady against the odd build that meets a GC cycle.
const setupRepeats = 3

// traceCap bounds the obs event ring of a traced run. It is far above the
// largest workload's event count (about 10 events per op); a wrap would
// lose spans, so it fails the run instead.
const traceCap = 1 << 24

// runOnce builds the workload for seed, runs it, and checks its outputs.
// Only the run itself sits inside the host measurement; building and the
// post-run invariant check do not. An error means the run was wrong. A
// traced run records the obs event trace and keeps its span summary.
func runOnce(w workload, sz size, seed int64, traced bool) (sample, error) {
	var o *obs.Observer
	if traced {
		o = obs.New(obs.Options{Trace: true, TraceCap: traceCap})
	}
	var s sample
	var inst *instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.c.Shutdown()
		}
		runtime.GC() // build from the same heap every time, not the last run's garbage
		t0 := time.Now()
		var err error
		if inst, err = w.build(sz, seed, o); err != nil {
			return sample{}, fmt.Errorf("%s seed %d: build: %w", w.name, seed, err)
		}
		s.setups = append(s.setups, time.Since(t0))
	}
	c := inst.c
	s.seed, s.servers = seed, c.Opts.Servers
	defer c.Shutdown()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t1 := time.Now()
	s.outcome = inst.run()
	s.wall = time.Since(t1)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	s.delta = readCounters(c)
	s.simSpan = c.Sim.Now()
	sortDurations(s.lat)

	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	s.fp = fingerprint{
		VirtualNs:  s.simTime,
		Messages:   s.delta.net.Messages,
		WALAppends: s.delta.wal.Appends,
		Immediate:  s.delta.immediate,
		Events:     s.delta.events,
	}

	if s.hard != 0 {
		return s, fmt.Errorf("%s seed %d: %d hard operation errors", w.name, seed, s.hard)
	}
	if d := s.delta.dropped(); d != 0 {
		return s, fmt.Errorf("%s seed %d: transport dropped %d messages", w.name, seed, d)
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		return s, fmt.Errorf("%s seed %d: %d invariant violations, first: %s", w.name, seed, len(bad), bad[0])
	}
	if d := o.Dropped(); d != 0 {
		return s, fmt.Errorf("%s seed %d: obs ring dropped %d events", w.name, seed, d)
	}
	if traced {
		s.spans = readSpans(o.Events())
	}
	if s.ops == 0 || s.simTime <= 0 {
		return s, fmt.Errorf("%s seed %d: empty run (%d ops, %v)", w.name, seed, s.ops, s.simTime)
	}
	return s, nil
}

// cpuTime is the user+sys CPU this process has used so far, GC workers on
// other cores included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the peak resident set of this process (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
