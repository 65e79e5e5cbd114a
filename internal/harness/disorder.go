package harness

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// DisorderResult is what one run of the Figure 3b scenario observed.
type DisorderResult struct {
	Converged     bool     // the scenario finished within its virtual hour
	ADone, BDone  bool     // each client's operation settled
	EpochB        uint32   // B's final participant epoch (>= 2 once superseded)
	Supersedes    int      // B's participant replies replaced by a later epoch
	Invalidations uint64   // premature executions invalidated, over all servers
	Violations    []string // cluster invariant violations at the end
}

// Disorder forces one Figure 3b disordered conflict on a dedicated
// 4-server Cx cluster: ProA's unlink and ProB's link of the same (dentry,
// inode) arrive in opposite orders at the coordinator and the participant.
// The coordinator's immediate commitment carries B in its Enforce set, so
// the participant must invalidate B's premature execution, execute A, and
// re-execute B after A commits; B's client sees the superseding epoch.
// The cluster quiesces afterwards, so lazy commitment and WAL pruning run
// too. obsv, if not nil, records the run.
func Disorder(seed int64, obsv *obs.Observer) DisorderResult {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Seed = seed
	o.Cx.Timeout = time.Hour // never let a retry mask the disorder
	o.Obs = obsv
	c := cluster.MustNew(o)
	defer c.Shutdown()

	var r DisorderResult
	c.Sim.Spawn("disorder", func(p *simrt.Proc) {
		prSetup := c.Proc(1)
		prA, prB := c.Proc(0), c.Proc(c.NumProcs()-1)
		hostA, hostB := c.Hosts[0], c.Hosts[len(c.Hosts)-1]

		// Seed a file reachable by two names (nlink 2) so the unlink and
		// the re-link both succeed in isolation and the invariant checker
		// stays satisfied.
		name, ino, coord, part := SharedPlacement(c, prSetup)
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, ino)
		second := name + ".alt"
		c.Bases[c.Placement.CoordinatorFor(types.RootInode, second)].Shard.SeedDentry(types.RootInode, second, ino)
		c.Bases[part].Shard.SeedInode(types.Inode{Ino: ino, Type: types.FileRegular, Nlink: 2})

		idA, idB := prA.NextID(), prB.NextID()
		opA := types.Op{ID: idA, Kind: types.OpUnlink, Parent: types.RootInode, Name: name, Ino: ino}
		opB := types.Op{ID: idB, Kind: types.OpLink, Parent: types.RootInode, Name: name, Ino: ino}
		cA, pA := types.Split(opA)
		cB, pB := types.Split(opB)

		routeA := hostA.Open(idA)
		routeB := hostB.Open(idB)
		defer hostA.Done(idA)
		defer hostB.Done(idB)

		// Force the disorder: coordinator sees A then B; participant sees
		// B then A. Equal network latency preserves send order.
		hostA.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idA, Sub: cA, Peer: part, ReplyProc: idA.Proc})
		hostB.Send(wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idB, Sub: pB, Peer: coord, ReplyProc: idB.Proc})
		p.Sleep(time.Millisecond)
		hostB.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idB, Sub: cB, Peer: part, ReplyProc: idB.Proc})
		hostA.Send(wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idA, Sub: pA, Peer: coord, ReplyProc: idA.Proc})

		// Collect both clients concurrently.
		g := simrt.NewGroup(c.Sim)
		g.Add(2)
		c.Sim.Spawn("disorder/clientA", func(pa *simrt.Proc) {
			defer g.Done()
			r.ADone, _, _ = collect(pa, routeA, coord)
		})
		c.Sim.Spawn("disorder/clientB", func(pb *simrt.Proc) {
			defer g.Done()
			r.BDone, r.EpochB, r.Supersedes = collect(pb, routeB, coord)
		})
		g.Wait(p)
		c.Quiesce(p)
		for _, srv := range c.CxSrv {
			r.Invalidations += srv.Stats().Invalidations
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	r.Converged = c.Sim.Stopped()
	r.Violations = c.CheckInvariants()
	return r
}

// SharedPlacement hunts for a (name, ino) whose unlink and link share BOTH
// servers: the dentry partition (coordinator) and the inode home
// (participant), with coordinator != participant.
func SharedPlacement(c *cluster.Cluster, pr *cluster.Process) (name string, ino types.InodeID, coord, part types.NodeID) {
	for try := 0; ; try++ {
		name = fmt.Sprintf("disordered-%d", try)
		ino = pr.AllocInode()
		coord = c.Placement.CoordinatorFor(types.RootInode, name)
		part = c.Placement.ParticipantFor(ino)
		if coord != part {
			return
		}
	}
}

// collect emulates one client process's response collection for a
// cross-server op issued raw. It drains route until the op settles (both
// sub-op replies in, the participant's not voided) or an ALL-NO arrives,
// and reports whether that happened before the deadline, the participant's
// final epoch, and how many of its replies a later epoch superseded.
func collect(p *simrt.Proc, route *simrt.Chan[wire.Msg], coord types.NodeID) (done bool, epoch uint32, supersedes int) {
	var haveC, haveP, voidP bool
	for {
		m, got := route.RecvTimeout(p, 30*time.Second)
		switch {
		case !got:
			return false, epoch, supersedes
		case m.Type == wire.MsgAllNo:
			return true, epoch, supersedes
		case m.Type != wire.MsgSubOpResp:
			continue
		case m.From == coord:
			haveC = true
		case m.Epoch < epoch:
			continue
		default:
			if m.Epoch > epoch && haveP {
				supersedes++
			}
			epoch = m.Epoch
			voidP = m.Err == types.ErrInvalidated.Error()
			haveP = haveP || !voidP
		}
		if haveC && haveP && !voidP {
			return true, epoch, supersedes
		}
	}
}
