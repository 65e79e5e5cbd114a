package baseline

import (
	"fmt"
	"time"

	"cxfs/internal/core"
	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// SEServer is the Serial Execution server (PVFS2/OrangeFS, §II.B). It has
// no cross-server commitment at all: each sub-op persists independently and
// the client sequences the two executions, compensating with CLEAR when the
// second fails. Batched mode is the paper's OFS-batched: updates are logged
// synchronously and flushed to the database lazily.
type SEServer struct {
	*node.Base
	pl      namespace.Placement
	batched bool
	flushT  time.Duration

	// pendingUndo retains the rollback for participant sub-ops until the
	// client's CLEAR can no longer come. SE has no protocol completion
	// signal, so the set is bounded: oldest entries are discarded — exactly
	// the window in which a crashed client leaves orphans (§II.B's
	// acknowledged weakness of SE).
	pendingUndo map[types.OpID]*namespace.Undo
	undoOrder   []types.OpID

	// localOps await the batched flush (batched mode only).
	localOps []localFlush

	// guard suppresses duplicate (retried) mutating requests.
	guard *dupGuard

	// leases serves the leased read path, the same one the Cx server uses,
	// so the stat-storm experiment compares cache on/off across protocols.
	leases *core.LeaseTable
}

type localFlush struct {
	id   types.OpID
	rows []string
}

const seUndoCap = 4096

// NewSEServer builds an SE server; batched selects OFS-batched behavior.
// flushTimeout paces the batched flush daemon (ignored in sync mode).
// leases is the server's lease table (see core.NewLeaseTable).
func NewSEServer(base *node.Base, pl namespace.Placement, batched bool, flushTimeout time.Duration, leases *core.LeaseTable) *SEServer {
	if flushTimeout <= 0 {
		flushTimeout = 10 * time.Second
	}
	return &SEServer{
		Base: base, pl: pl, batched: batched, flushT: flushTimeout,
		pendingUndo: make(map[types.OpID]*namespace.Undo),
		guard:       newDupGuard(),
		leases:      leases,
	}
}

// Start launches the inbox loop plus the write-back daemon: the batched
// flush daemon in OFS-batched mode, or the database checkpointer in plain
// sync mode (BDB journal appends defer the in-place page writes to it).
func (s *SEServer) Start() {
	s.Base.Start(s.handle)
	if s.batched {
		s.Sim.Spawn(fmt.Sprintf("se%d/flushd", s.ID), s.flushDaemon)
	} else {
		s.KV.StartCheckpointer(s.flushT)
	}
}

func (s *SEServer) flushDaemon(p *simrt.Proc) {
	for {
		p.Sleep(s.flushT)
		if s.Crashed() {
			continue
		}
		s.flushLocal(p)
	}
}

func (s *SEServer) flushLocal(p *simrt.Proc) {
	if len(s.localOps) == 0 {
		return
	}
	ops := s.localOps
	s.localOps = nil
	var rows []string
	for _, lo := range ops {
		rows = append(rows, lo.rows...)
	}
	s.KV.FlushKeys(p, rows)
	if s.Crashed() {
		return
	}
	for _, lo := range ops {
		s.WAL.Prune(lo.id)
	}
}

func (s *SEServer) handle(p *simrt.Proc, m wire.Msg) {
	switch m.Type {
	case wire.MsgSubOpReq:
		s.handleSubOp(p, m)
	case wire.MsgOpReq:
		s.handleLocalOp(p, m)
	case wire.MsgClear:
		s.handleClear(p, m)
	case wire.MsgLookupReq:
		// SE executes serially and persists before replying, so lookups
		// resolve straight from the shard; there is no active-object table
		// to park behind.
		s.leases.Serve(p, m)
	}
}

// persist makes an execution durable per the server's mode: plain OFS
// writes the rows synchronously into the database; OFS-batched appends a
// log record and defers the database write to the flush daemon.
func (s *SEServer) persist(p *simrt.Proc, id types.OpID, sub types.SubOp, res namespace.Result) {
	if !s.batched {
		s.KV.SyncKeys(p, res.Rows)
		return
	}
	s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: id, Role: sub.Role,
		OK: true, Sub: sub, Before: res.Before, After: res.After})
	if s.Crashed() {
		return
	}
	s.localOps = append(s.localOps, localFlush{id: id, rows: res.Rows})
}

func (s *SEServer) handleSubOp(p *simrt.Proc, m wire.Msg) {
	sub := m.Sub
	mutating := sub.Action.Mutating()
	if mutating {
		if !s.guard.claim(s.Base, sub.Op, m.From) {
			return
		}
		defer s.guard.abandon(sub.Op)
	}
	s.ExecCPU(p)
	res := s.Shard.Exec(sub, s.NowNanos())
	if res.OK && mutating {
		s.leases.Revoke(sub)
		s.persist(p, sub.Op, sub, res)
		if s.CrashPoint("se:after-persist", sub.Op) {
			return
		}
		if sub.Kind.CrossServer() && sub.Role == types.RoleParticipant {
			s.retainUndo(sub.Op, res.Undo)
		}
	}
	reply := wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op, OK: res.OK, Attr: res.Inode, Epoch: 1}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	if mutating {
		s.guard.finish(sub.Op, reply)
	}
	s.Send(reply)
}

func (s *SEServer) retainUndo(id types.OpID, u *namespace.Undo) {
	if len(s.undoOrder) >= seUndoCap {
		drop := s.undoOrder[0]
		s.undoOrder = s.undoOrder[1:]
		delete(s.pendingUndo, drop)
	}
	s.pendingUndo[id] = u
	s.undoOrder = append(s.undoOrder, id)
}

// handleClear compensates a participant sub-op whose coordinator-side
// failed (§II.B: "the process withdraws the former sub-ops by sending a
// CLEAR message").
func (s *SEServer) handleClear(p *simrt.Proc, m wire.Msg) {
	if u, ok := s.pendingUndo[m.Op]; ok {
		delete(s.pendingUndo, m.Op)
		s.Shard.ApplyUndo(u)
		if !s.batched {
			s.KV.SyncKeys(p, u.Keys())
		} else {
			s.localOps = append(s.localOps, localFlush{id: m.Op, rows: u.Keys()})
		}
		if s.Crashed() {
			return
		}
	}
	s.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true})
}

// handleLocalOp executes a colocated cross-server op or a single-server
// update locally.
func (s *SEServer) handleLocalOp(p *simrt.Proc, m wire.Msg) {
	op := m.FullOp
	if !s.guard.admit(s.Base, m) {
		return
	}
	defer s.guard.abandon(op.ID)
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}
	s.ExecCPU(p)
	if op.Kind.CrossServer() {
		cSub, pSub := types.Split(op)
		resP := s.Shard.Exec(pSub, s.NowNanos())
		if !resP.OK {
			reply.OK, reply.Err = false, resP.Err.Error()
			s.Send(reply)
			return
		}
		resC := s.Shard.Exec(cSub, s.NowNanos())
		if !resC.OK {
			s.Shard.ApplyUndo(resP.Undo)
			reply.OK, reply.Err = false, resC.Err.Error()
			s.Send(reply)
			return
		}
		s.leases.Revoke(cSub)
		s.persist(p, op.ID, pSub, resP)
		if s.Crashed() {
			return
		}
		s.persist(p, op.ID, cSub, resC)
	} else {
		sub := types.SingleSubOp(op)
		res := s.Shard.Exec(sub, s.NowNanos())
		reply.OK, reply.Attr = res.OK, res.Inode
		if res.Err != nil {
			reply.Err = res.Err.Error()
		}
		if res.OK && sub.Action.Mutating() {
			s.leases.Revoke(sub)
			s.persist(p, op.ID, sub, res)
		}
	}
	if s.Crashed() {
		return
	}
	if op.Kind.Mutating() {
		s.guard.finish(op.ID, reply)
	}
	s.Send(reply)
}

// SEDriver is the client side of Serial Execution: participant first, then
// coordinator, compensating with CLEAR on a late failure (§II.B, Fig 1b).
type SEDriver struct {
	host  *node.Host
	pl    namespace.Placement
	cache *core.Cache
}

// NewSEDriver builds an SE driver bound to a client host. cache, when
// non-nil, is the leased metadata cache attached to the same host
// (core.Cache.Attach); nil disables client caching.
func NewSEDriver(host *node.Host, pl namespace.Placement, cache *core.Cache) *SEDriver {
	return &SEDriver{host: host, pl: pl, cache: cache}
}

// Do executes one metadata operation serially.
func (d *SEDriver) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	start := d.host.BeginOp(op)
	ino, err := d.do(p, op)
	d.host.EndOp(op, start, err, false)
	return ino, err
}

func (d *SEDriver) do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	if d.cache != nil {
		if op.Kind == types.OpLookup {
			return d.cache.Lookup(p, op, d.pl.CoordinatorFor(op.Parent, op.Name))
		}
		d.cache.InvalidateOp(op)
	}
	if !op.Kind.CrossServer() {
		return singleServerOp(p, d.host, d.pl, op)
	}
	coord := d.pl.CoordinatorFor(op.Parent, op.Name)
	part := d.pl.ParticipantFor(op.Ino)
	if coord == part {
		return localOpCall(p, d.host, op, coord)
	}
	cSub, pSub := types.Split(op)
	route := d.host.Open(op.ID)
	defer d.host.Done(op.ID)

	// Step 1: participant executes first.
	m, ok := d.host.Call(p, route, wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
	if !ok {
		return types.Inode{}, types.ErrTimeout
	}
	if !m.OK {
		return types.Inode{}, node.ReplyError(m)
	}
	// Step 2: then the coordinator.
	m, ok = d.host.Call(p, route, wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: op.ID, Sub: cSub, Peer: part, ReplyProc: op.ID.Proc})
	if !ok {
		// The participant's half may be durable with no withdrawal possible:
		// exactly SE's documented orphan window. Best-effort CLEAR.
		d.host.Call(p, route, wire.Msg{Type: wire.MsgClear, To: part, Op: op.ID, ReplyProc: op.ID.Proc})
		return types.Inode{}, types.ErrTimeout
	}
	if m.OK {
		return m.Attr, nil
	}
	// Compensate: CLEAR the participant's execution.
	err := node.ReplyError(m)
	d.host.Call(p, route, wire.Msg{Type: wire.MsgClear, To: part, Op: op.ID, ReplyProc: op.ID.Proc})
	return types.Inode{}, err
}

// Shared client helpers -----------------------------------------------------

// coordinatorOp is the 2PC and CE client: a cross-server operation is one
// request to its coordinator, which answers once the whole operation has
// committed or aborted; anything else goes to its single owner.
func coordinatorOp(p *simrt.Proc, host *node.Host, pl namespace.Placement, op types.Op) (types.Inode, error) {
	if !op.Kind.CrossServer() {
		return singleServerOp(p, host, pl, op)
	}
	return localOpCall(p, host, op, pl.CoordinatorFor(op.Parent, op.Name))
}

// singleServerOp routes a read or single-server update to its owner server
// as an OpReq (SE, 2PC, and CE all use the plain local path for these).
func singleServerOp(p *simrt.Proc, host *node.Host, pl namespace.Placement, op types.Op) (types.Inode, error) {
	var target types.NodeID
	switch op.Kind {
	case types.OpLookup:
		target = pl.CoordinatorFor(op.Parent, op.Name)
	default:
		target = pl.ParticipantFor(op.Ino)
	}
	return localOpCall(p, host, op, target)
}

// localOpCall sends a whole op to one server and awaits the response.
func localOpCall(p *simrt.Proc, host *node.Host, op types.Op, server types.NodeID) (types.Inode, error) {
	route := host.Open(op.ID)
	defer host.Done(op.ID)
	m, ok := host.Call(p, route, wire.Msg{Type: wire.MsgOpReq, To: server, Op: op.ID, FullOp: op, ReplyProc: op.ID.Proc})
	if !ok {
		return types.Inode{}, types.ErrTimeout
	}
	if m.OK {
		return m.Attr, nil
	}
	return types.Inode{}, node.ReplyError(m)
}
