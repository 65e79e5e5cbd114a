// Disordered-conflict tests: the Figure 3b scenario, where the participant
// executed the later arrival first and must invalidate it when the
// coordinator's VOTE enforces its order.
package core_test

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/harness"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// TestDisorderedConflictInvalidatesAndReexecutes reproduces Figure 3b:
// ProA's unlink and ProB's link of the same (entry, inode) arrive in
// opposite orders at the two servers. The coordinator's immediate
// commitment must carry B in its Enforce set; the participant invalidates
// B's execution, executes A, and re-executes B after A commits, with B's
// client seeing the superseding epoch.
func TestDisorderedConflictInvalidatesAndReexecutes(t *testing.T) {
	r := harness.Disorder(1, nil)
	if !r.Converged {
		t.Fatal("disordered scenario hung")
	}
	if r.EpochB < 2 {
		t.Errorf("B's participant response never superseded (epoch=%d); invalidation path not exercised", r.EpochB)
	}
	if r.Supersedes == 0 {
		t.Error("B's client never saw its participant reply superseded")
	}
	if !r.ADone || !r.BDone {
		t.Errorf("clients incomplete: A=%v B=%v", r.ADone, r.BDone)
	}
	if r.Invalidations == 0 {
		t.Error("no invalidation recorded; the disordered path did not trigger")
	}
	if len(r.Violations) != 0 {
		t.Errorf("invariants: %v", r.Violations)
	}
}

// TestDisorderedStressManyRounds hammers the same (dentry, inode) pair from
// two processes with alternating link/unlink so ordered and disordered
// conflicts interleave; everything must converge with clean invariants.
func TestDisorderedStressManyRounds(t *testing.T) {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Cx.Timeout = 500 * time.Millisecond
	c := cluster.MustNew(o)
	defer c.Shutdown()

	c.Sim.Spawn("scenario", func(p *simrt.Proc) {
		pr0 := c.Proc(0)
		name, ino, coord, part := harness.SharedPlacement(c, pr0)
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, ino)
		c.Bases[part].Shard.SeedInode(types.Inode{Ino: ino, Type: types.FileRegular, Nlink: 1})

		g := simrt.NewGroup(c.Sim)
		g.Add(2)
		worker := func(pr *cluster.Process, alt string) func(*simrt.Proc) {
			return func(wp *simrt.Proc) {
				defer g.Done()
				for i := 0; i < 15; i++ {
					// Each worker links its own alternate name to the hot
					// inode and unlinks it again: constant conflicts on the
					// inode object from two processes.
					n := fmt.Sprintf("%s-%d", alt, i)
					if err := pr.Link(wp, types.RootInode, n, ino); err != nil {
						continue
					}
					pr.Unlink(wp, types.RootInode, n, ino)
				}
			}
		}
		c.Sim.Spawn("w1", worker(c.Proc(0), "a"))
		c.Sim.Spawn("w2", worker(c.Proc(c.NumProcs()-1), "b"))
		g.Wait(p)
		c.Quiesce(p)
		// The hot inode must survive with exactly its original link.
		if in, ok := c.Bases[part].Shard.GetInode(ino); !ok || in.Nlink != 1 {
			t.Errorf("hot inode after stress: %+v ok=%v", in, ok)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("stress hung")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
	var lateInv uint64
	for _, srv := range c.CxSrv {
		lateInv += srv.Stats().LateInvalidations
	}
	if lateInv != 0 {
		t.Errorf("%d late invalidations (op completed then invalidated)", lateInv)
	}
}
