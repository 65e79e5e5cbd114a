// Command cxd serves the Cx reproduction over TCP: a line-oriented JSON
// protocol for running experiments, trace replays, and Metarates benchmarks
// remotely. It is how the repository's simulated cluster is exposed as a
// long-lived service (the protocol runs themselves execute inside the
// deterministic simulator; cxd wraps them with a real network front end).
//
// Usage:
//
//	cxd -listen 127.0.0.1:7070
//
// Protocol: one JSON object per line in, one per line out.
//
//	{"cmd":"ping"}
//	{"cmd":"experiments"}   // the harness registry's IDs, space-separated
//	{"cmd":"run","exp":"table2","scale":0.002,"servers":4}
//	{"cmd":"replay","trace":"s3d","protocol":"cx","scale":0.002}
//	{"cmd":"metarates","mix":"update-dominated","servers":4,"ops":40}
//	{"cmd":"report"}
//
// Responses: {"ok":true,"output":...} or {"ok":false,"error":"..."}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/harness"
	"cxfs/internal/metarates"
	"cxfs/internal/obs"
	"cxfs/internal/trace"
)

// Request is one client command.
type Request struct {
	Cmd      string  `json:"cmd"`
	Exp      string  `json:"exp,omitempty"`
	Trace    string  `json:"trace,omitempty"`
	Protocol string  `json:"protocol,omitempty"`
	Mix      string  `json:"mix,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Servers  int     `json:"servers,omitempty"`
	Ops      int     `json:"ops,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// Response is one server answer.
type Response struct {
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Output string `json:"output,omitempty"`
	Millis int64  `json:"wall_ms,omitempty"`
}

// server serializes simulator runs: the simulations are CPU-bound and
// deterministic, so one at a time keeps results reproducible.
type server struct {
	mu sync.Mutex
	// obs is the observability session of the most recent run; the
	// "report" command renders it.
	obs *obs.Observer
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "listen address")
	flag.Parse()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("cxd: %v", err)
	}
	log.Printf("cxd: serving on %s", ln.Addr())
	srv := &server{}
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("cxd: accept: %v", err)
			continue
		}
		go srv.serve(conn)
	}
}

func (s *server) serve(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var req Request
		var resp Response
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			resp = Response{Error: fmt.Sprintf("bad request: %v", err)}
		} else {
			resp = s.handle(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func (s *server) handle(req Request) (resp Response) {
	start := time.Now()
	// Defense in depth: no network-supplied request may kill the daemon.
	// Validation below should reject bad input first; a panic that slips
	// through becomes an error response.
	defer func() {
		if r := recover(); r != nil {
			resp = Response{Error: fmt.Sprintf("internal error: %v", r),
				Millis: time.Since(start).Milliseconds()}
		}
	}()
	out, err := s.dispatch(req)
	if err != nil {
		return Response{Error: err.Error(), Millis: time.Since(start).Milliseconds()}
	}
	return Response{OK: true, Output: out, Millis: time.Since(start).Milliseconds()}
}

// validate bounds the numeric knobs a request may set. Defaults apply only
// to zero values; anything negative or absurd is an error, never a panic.
func validate(req *Request) error {
	switch {
	case req.Scale < 0 || req.Scale > 1:
		return fmt.Errorf("scale must be in (0,1], got %v", req.Scale)
	case req.Servers < 0 || req.Servers > 1024:
		return fmt.Errorf("servers must be in [1,1024], got %d", req.Servers)
	case req.Ops < 0 || req.Ops > 1<<20:
		return fmt.Errorf("ops must be in [0,%d], got %d", 1<<20, req.Ops)
	case req.Seed < 0:
		return fmt.Errorf("seed must be non-negative, got %d", req.Seed)
	}
	if req.Protocol != "" && !cluster.Protocol(req.Protocol).Valid() {
		return fmt.Errorf("unknown protocol %q", req.Protocol)
	}
	if req.Scale == 0 {
		req.Scale = 0.002
	}
	if req.Servers == 0 {
		req.Servers = 4
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return nil
}

func (s *server) dispatch(req Request) (string, error) {
	if err := validate(&req); err != nil {
		return "", err
	}
	switch req.Cmd {
	case "ping":
		return "pong", nil
	case "experiments":
		return strings.Join(harness.IDs(), " "), nil
	case "run":
		e, err := harness.Lookup(req.Exp)
		if err != nil {
			return "", err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		out, err := e.Run(harness.Config{Scale: req.Scale, Servers: req.Servers, Seed: req.Seed, Obs: s.beginObs()})
		return strings.TrimSuffix(out.Text, "\n"), err
	case "replay":
		return s.runReplay(req)
	case "metarates":
		return s.runMetarates(req)
	case "report":
		return s.report()
	}
	return "", fmt.Errorf("unknown command %q", req.Cmd)
}

// beginObs opens a fresh observability session for one run; "report"
// renders the latest.
func (s *server) beginObs() *obs.Observer {
	s.obs = obs.New(obs.Options{Hist: true, Trace: true})
	return s.obs
}

// report renders the latency histograms and phase counts of the most
// recent run.
func (s *server) report() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.obs == nil {
		return "", fmt.Errorf("no run to report on yet")
	}
	return s.obs.HistTable().String() + "\n" + s.obs.PhaseTable().String(), nil
}

func (s *server) runReplay(req Request) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := trace.ProfileByName(req.Trace)
	if err != nil {
		return "", err
	}
	proto := cluster.Protocol(req.Protocol)
	if proto == "" {
		proto = cluster.ProtoCx
	}
	tr := trace.Generate(p, req.Scale, req.Seed)
	o := cluster.DefaultOptions(req.Servers, proto)
	o.ClientHosts = 16
	o.ProcsPerHost = 8
	o.Seed = req.Seed
	o.Obs = s.beginObs()
	c, err := cluster.New(o)
	if err != nil {
		return "", err
	}
	defer c.Shutdown()
	res := (&trace.Replayer{Trace: tr, C: c}).Run()
	return fmt.Sprintf("workload=%s protocol=%s ops=%d replay=%v messages=%d conflicts=%d (ratio %.3f%%)",
		res.Workload, res.Protocol, res.Ops, res.ReplayTime, res.Messages, res.Conflicts,
		res.ConflictRatio()*100), nil
}

func (s *server) runMetarates(req Request) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mix := metarates.UpdateDominated
	if strings.HasPrefix(req.Mix, "read") {
		mix = metarates.ReadDominated
	}
	proto := cluster.Protocol(req.Protocol)
	if proto == "" {
		proto = cluster.ProtoCx
	}
	if req.Ops == 0 {
		req.Ops = 40
	}
	o := cluster.DefaultOptions(req.Servers, proto)
	o.Seed = req.Seed
	o.Obs = s.beginObs()
	c, err := cluster.New(o)
	if err != nil {
		return "", err
	}
	defer c.Shutdown()
	res := metarates.Run(c, metarates.Config{Mix: mix, OpsPerProc: req.Ops})
	return fmt.Sprintf("mix=%s protocol=%s servers=%d procs=%d ops=%d elapsed=%v throughput=%.0f ops/s",
		res.Mix, res.Protocol, res.Servers, res.Procs, res.Ops, res.Elapsed, res.Throughput), nil
}
