// In-package test of the commit daemon's adaptive lazy period: the
// threshold arithmetic of adaptivePeriod is exercised directly against a
// real WAL at controlled fill levels.
package core

import (
	"testing"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wal"
)

// adaptiveRec builds one Result record of a fixed encoded size.
func adaptiveRec(seq uint64) wal.Record {
	id := types.OpID{Proc: types.ProcID{Client: 50, Index: 0}, Seq: seq}
	return wal.Record{
		Type: wal.RecResult, Op: id, Role: types.RoleCoordinator, OK: true,
		Sub: types.SubOp{Op: id, Kind: types.OpCreate, Role: types.RoleCoordinator,
			Action: types.ActInsertEntry, Parent: 7, Name: "adaptv", Ino: 42,
			Type: types.FileRegular},
	}
}

// withAdaptiveServer builds a bare (not started) Cx server whose WAL caps
// at exactly 4 records, so tests can dial precise fill fractions.
func withAdaptiveServer(t *testing.T, cfg Config, fn func(p *simrt.Proc, s *Server)) {
	t.Helper()
	sim := simrt.New(1)
	net := transport.New(sim, transport.DefaultParams())
	hw := node.DefaultHardware()
	hw.LogMaxBytes = 4 * wal.EncodedSize(adaptiveRec(1))
	base := node.NewBase(sim, net, 0, hw)
	srv := NewServer(base, namespace.Placement{Servers: 1}, cfg, NewLeaseTable(base, 0))
	sim.Spawn("t", func(p *simrt.Proc) {
		fn(p, srv)
		sim.Stop()
	})
	sim.RunUntil(time.Hour)
	if !sim.Stopped() {
		t.Fatal("hung")
	}
	sim.Shutdown()
}

func TestAdaptivePeriodOffIsFixedTimeout(t *testing.T) {
	base := 800 * time.Millisecond
	withAdaptiveServer(t, Config{Timeout: base}, func(p *simrt.Proc, s *Server) {
		if got := s.adaptivePeriod(); got != base {
			t.Errorf("adaptive off: period %v, want %v", got, base)
		}
		if s.stats.AdaptiveShrinks+s.stats.AdaptiveStretches != 0 {
			t.Error("adaptive counters moved with the feature off")
		}
	})
}

func TestAdaptivePeriodStretchesWhenIdle(t *testing.T) {
	base := 800 * time.Millisecond
	withAdaptiveServer(t, Config{Timeout: base, AdaptiveLazy: true}, func(p *simrt.Proc, s *Server) {
		if got := s.adaptivePeriod(); got != base*2 {
			t.Errorf("idle: period %v, want %v", got, base*2)
		}
		if s.stats.AdaptiveStretches == 0 {
			t.Error("stretch not counted")
		}
	})
}

func TestAdaptivePeriodShrinksUnderLogPressure(t *testing.T) {
	base := 800 * time.Millisecond
	withAdaptiveServer(t, Config{Timeout: base, AdaptiveLazy: true}, func(p *simrt.Proc, s *Server) {
		// Capacity is 4 records. 2 records = 50% -> base/2.
		s.WAL.Append(p, adaptiveRec(1))
		s.WAL.Append(p, adaptiveRec(2))
		if got := s.adaptivePeriod(); got != base/2 {
			t.Errorf("at 50%%: period %v, want %v", got, base/2)
		}
		// 3 records = 75% -> base/8.
		s.WAL.Append(p, adaptiveRec(3))
		if got := s.adaptivePeriod(); got != base/8 {
			t.Errorf("at 75%%: period %v, want %v", got, base/8)
		}
		if s.stats.AdaptiveShrinks != 2 {
			t.Errorf("shrinks=%d, want 2", s.stats.AdaptiveShrinks)
		}
	})
}

func TestAdaptivePeriodBaseWithWorkPendingAndLogQuiet(t *testing.T) {
	base := 800 * time.Millisecond
	withAdaptiveServer(t, Config{Timeout: base, AdaptiveLazy: true}, func(p *simrt.Proc, s *Server) {
		// One record = 25% of capacity: below both pressure thresholds. A
		// pending coordinator op suppresses the idle stretch, so the period
		// is the plain base.
		s.WAL.Append(p, adaptiveRec(1))
		id := types.OpID{Proc: types.ProcID{Client: 51}, Seq: 1}
		s.pendingCoord[id] = &coordOp{id: id}
		if got := s.adaptivePeriod(); got != base {
			t.Errorf("busy, quiet log: period %v, want %v", got, base)
		}
	})
}

func TestAdaptivePeriodUnlimitedLogStillStretches(t *testing.T) {
	// With no log cap there is no pressure signal; only the idle stretch
	// applies.
	base := 400 * time.Millisecond
	sim := simrt.New(1)
	net := transport.New(sim, transport.DefaultParams())
	hw := node.DefaultHardware()
	hw.LogMaxBytes = 0
	b := node.NewBase(sim, net, 0, hw)
	srv := NewServer(b, namespace.Placement{Servers: 1}, Config{Timeout: base, AdaptiveLazy: true}, NewLeaseTable(b, 0))
	sim.Spawn("t", func(p *simrt.Proc) {
		for i := uint64(1); i <= 50; i++ {
			srv.WAL.Append(p, adaptiveRec(i))
		}
		if got := srv.adaptivePeriod(); got != base*2 {
			t.Errorf("unlimited log: period %v, want %v", got, base*2)
		}
		sim.Stop()
	})
	sim.RunUntil(time.Hour)
	sim.Shutdown()
}
