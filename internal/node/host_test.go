package node

import (
	"errors"
	"testing"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// callRig is one host and two servers. Server 0 answers after a delay;
// server 1 answers at once, so its reply can overtake server 0's.
type callRig struct {
	s        *simrt.Sim
	h        *Host
	arrivals []time.Duration // when server 0 received each request
}

func newCallRig(rp types.RetryPolicy, answerFrom int) *callRig {
	s := simrt.New(1)
	net := transport.New(s, transport.DefaultParams())
	r := &callRig{s: s, h: NewHost(s, net, 100, rp, nil, "")}
	slow := NewBase(s, net, 0, DefaultHardware())
	slow.Start(func(p *simrt.Proc, m wire.Msg) {
		r.arrivals = append(r.arrivals, p.Now())
		if len(r.arrivals) < answerFrom {
			return // lost: the client must retransmit
		}
		p.Sleep(5 * time.Millisecond)
		slow.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true, Path: "addressed"})
	})
	fast := NewBase(s, net, 1, DefaultHardware())
	fast.Start(func(p *simrt.Proc, m wire.Msg) {
		fast.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true, Path: "stray"})
	})
	return r
}

// call runs one Call to server 0 on the rig, first provoking a stray reply
// from server 1 on the same route when stray is set.
func (r *callRig) call(t *testing.T, stray bool) (wire.Msg, bool) {
	t.Helper()
	var m wire.Msg
	var ok, done bool
	r.s.Spawn("client", func(p *simrt.Proc) {
		id := types.OpID{Proc: types.ProcID{Client: 100}, Seq: 1}
		route := r.h.Open(id)
		defer r.h.Done(id)
		if stray {
			r.h.Send(wire.Msg{Type: wire.MsgOpReq, To: 1, Op: id})
		}
		m, ok = r.h.Call(p, route, wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id})
		done = true
		r.s.Stop()
	})
	r.s.RunUntil(time.Hour)
	r.s.Shutdown()
	if !done {
		t.Fatal("Call never returned")
	}
	return m, ok
}

func TestCallDiscardsReplyFromOtherServer(t *testing.T) {
	for _, rp := range []types.RetryPolicy{{}, {Timeout: 50 * time.Millisecond, Attempts: 3}} {
		r := newCallRig(rp, 1)
		m, ok := r.call(t, true)
		if !ok || m.From != 0 || m.Path != "addressed" {
			t.Errorf("policy %+v: Call returned ok=%v from=%d %q, want the addressed server's reply",
				rp, ok, m.From, m.Path)
		}
		if st := r.h.Stats(); st.Retries != 0 || st.Timeouts != 0 {
			t.Errorf("policy %+v: stats %+v, want no retries or timeouts", rp, st)
		}
	}
}

func TestCallRetransmitsAfterEachTimeout(t *testing.T) {
	rp := types.RetryPolicy{Timeout: 10 * time.Millisecond, Attempts: 5}
	r := newCallRig(rp, 3) // the first two requests are lost
	m, ok := r.call(t, false)
	if !ok || m.From != 0 {
		t.Fatalf("Call returned ok=%v from=%d, want the third attempt's reply", ok, m.From)
	}
	if len(r.arrivals) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(r.arrivals))
	}
	for i := 1; i < len(r.arrivals); i++ {
		if gap := r.arrivals[i] - r.arrivals[i-1]; gap != rp.WaitFor(i-1) {
			t.Errorf("retransmission %d came %v after the previous send, want the %v window", i, gap, rp.WaitFor(i-1))
		}
	}
	if st := r.h.Stats(); st.Retries != 2 || st.Timeouts != 0 {
		t.Errorf("stats %+v, want 2 retries and no timeout", st)
	}
}

func TestCallGivesUpWhenBudgetSpent(t *testing.T) {
	rp := types.RetryPolicy{Timeout: 10 * time.Millisecond, Attempts: 3}
	r := newCallRig(rp, 1<<30) // server 0 never answers
	if _, ok := r.call(t, false); ok {
		t.Fatal("Call succeeded with no reply")
	}
	if len(r.arrivals) != rp.Attempts {
		t.Errorf("server saw %d requests, want %d", len(r.arrivals), rp.Attempts)
	}
	if st := r.h.Stats(); st.Timeouts != 1 || st.Retries != 2 {
		t.Errorf("stats %+v, want 1 timeout and 2 retries", st)
	}
}

func TestReplyError(t *testing.T) {
	if err := ReplyError(wire.Msg{OK: true, Err: "ignored"}); err != nil {
		t.Errorf("successful reply decoded to %v", err)
	}
	for _, known := range []error{
		types.ErrExists, types.ErrNotFound, types.ErrNotEmpty, types.ErrNotDir,
		types.ErrIsDir, types.ErrAborted, types.ErrInvalidated,
	} {
		for _, msg := range []string{known.Error(), "insert x: " + known.Error()} {
			if err := ReplyError(wire.Msg{Err: msg}); !errors.Is(err, known) {
				t.Errorf("%q decoded to %v, want %v", msg, err, known)
			}
		}
	}
	if err := ReplyError(wire.Msg{}); !errors.Is(err, types.ErrAborted) {
		t.Errorf("empty message decoded to %v, want ErrAborted", err)
	}
	err := ReplyError(wire.Msg{Err: "weird failure"})
	if err == nil || err.Error() != "weird failure" {
		t.Errorf("unknown message decoded to %v, want it verbatim", err)
	}
}

func TestHostObservesEachOp(t *testing.T) {
	s := simrt.New(1)
	net := transport.New(s, transport.DefaultParams())
	o := obs.New(obs.Options{Hist: true, Trace: true})
	h := NewHost(s, net, 100, types.RetryPolicy{}, o, "proto")
	s.Spawn("client", func(p *simrt.Proc) {
		for i, end := range []struct {
			err        error
			conflicted bool
		}{{nil, false}, {types.ErrExists, true}, {nil, true}} {
			op := types.Op{ID: types.OpID{Seq: uint64(i + 1)}, Kind: types.OpCreate}
			start := h.BeginOp(op)
			p.Sleep(time.Millisecond)
			h.EndOp(op, start, end.err, end.conflicted)
		}
		s.Stop()
	})
	s.RunUntil(time.Hour)
	s.Shutdown()
	for _, out := range []obs.Outcome{obs.OutcomeComplete, obs.OutcomeAborted, obs.OutcomeConflicted} {
		hist := o.Histogram(obs.Key{Kind: types.OpCreate, Protocol: "proto", Outcome: out})
		if hist == nil || hist.Count != 1 || hist.Sum != time.Millisecond {
			t.Errorf("outcome %v: histogram %+v, want one 1ms op", out, hist)
		}
	}
	if got := o.PhaseCount(obs.PhaseIssue); got != 3 {
		t.Errorf("%d issue events, want 3", got)
	}
}

func TestReaddirUnionsServerPartitions(t *testing.T) {
	s := simrt.New(1)
	net := transport.New(s, transport.DefaultParams())
	h := NewHost(s, net, 100, types.RetryPolicy{}, nil, "")
	const dir = types.InodeID(7)
	big := types.InodeID(1<<40 | 0x0102030405) // every byte of the row matters
	for id, ents := range []map[string]types.InodeID{{"b": 2, "big": big}, {"a": 1}} {
		b := NewBase(s, net, types.NodeID(id), DefaultHardware())
		for name, ino := range ents {
			b.Shard.SeedDentry(dir, name, ino)
		}
		b.Start(func(p *simrt.Proc, m wire.Msg) { b.ServeReaddir(m) })
	}
	var got []namespace.DirEntry
	var err error
	s.Spawn("client", func(p *simrt.Proc) {
		got, err = h.Readdir(p, 2, types.OpID{Seq: 1}, dir)
		s.Stop()
	})
	s.RunUntil(time.Hour)
	s.Shutdown()
	want := []namespace.DirEntry{{Name: "a", Ino: 1}, {Name: "b", Ino: 2}, {Name: "big", Ino: big}}
	if err != nil || len(got) != len(want) {
		t.Fatalf("Readdir = %v, %v; want %v", got, err, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
