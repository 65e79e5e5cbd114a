package core

import (
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Driver is the Cx client-side protocol: it assigns the sub-operations of a
// cross-server operation to both servers concurrently (§III.B step 1),
// collects YES/NO responses with conflict hints and execution epochs, and
// launches an immediate commitment with L-COM when the responses disagree.
// Requests, retries and per-op observation go through the host.
type Driver struct {
	host *node.Host
	pl   namespace.Placement

	// cache, when non-nil, serves lookups locally under lease (the leased
	// read path).
	cache *Cache

	stats DriverStats
}

// DriverStats counts client-side protocol events. Retransmissions and
// timeouts are counted by the host (node.HostStats).
type DriverStats struct {
	Ops           uint64
	CrossServer   uint64
	Colocated     uint64
	SingleServer  uint64
	Disagreements uint64 // L-COM rounds
	Failures      uint64
	Supersedes    uint64 // responses replaced by a higher epoch
}

// NewDriver builds a Cx driver bound to a client host. cache, when
// non-nil, must be attached to the same host (Cache.Attach); nil disables
// client caching.
func NewDriver(host *node.Host, pl namespace.Placement, cache *Cache) *Driver {
	return &Driver{host: host, pl: pl, cache: cache}
}

// Stats returns a snapshot of driver counters.
func (d *Driver) Stats() DriverStats { return d.stats }

// Cache returns the attached cache (nil when caching is off).
func (d *Driver) Cache() *Cache { return d.cache }

// LastLookup reports whether this driver's most recent lookup was served
// from the cache, and the lease grant timestamp backing it (see
// Cache.LastLookup).
func (d *Driver) LastLookup() (cached bool, grant time.Duration) { return d.cache.LastLookup() }

// TrackLookups starts recording each lookup's cache disposition per
// operation (see Cache.TrackLookups).
func (d *Driver) TrackLookups() { d.cache.TrackLookups() }

// TakeLookup pops the recorded cache disposition of lookup id (see
// Cache.TakeLookup).
func (d *Driver) TakeLookup(id types.OpID) (cached bool, grant time.Duration, ok bool) {
	return d.cache.TakeLookup(id)
}

// Do executes one metadata operation and blocks until it is complete from
// the process's perspective. The returned inode carries stat/lookup
// payloads.
func (d *Driver) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	start := d.host.BeginOp(op)
	var conflicted bool
	ino, err := d.do(p, op, &conflicted)
	d.host.EndOp(op, start, err, conflicted)
	return ino, err
}

func (d *Driver) do(p *simrt.Proc, op types.Op, conflicted *bool) (types.Inode, error) {
	d.stats.Ops++
	if d.cache != nil {
		if op.Kind == types.OpLookup {
			ino, err := d.cache.Lookup(p, op, d.pl.CoordinatorFor(op.Parent, op.Name))
			if cached, _ := d.cache.LastLookup(); !cached {
				d.stats.SingleServer++
				if err != nil {
					d.stats.Failures++
				}
			}
			return ino, err
		}
		d.cache.InvalidateOp(op)
	}
	if op.Kind == types.OpRename {
		// Rename runs as an eager transaction coordinated by the source
		// entry's owner (extension; see internal/core/rename.go).
		return d.doLocal(p, op, d.pl.CoordinatorFor(op.Parent, op.Name))
	}
	if !op.Kind.CrossServer() {
		return d.doSingle(p, op)
	}
	coord := d.pl.CoordinatorFor(op.Parent, op.Name)
	part := d.pl.ParticipantFor(op.Ino)
	if coord == part {
		d.stats.Colocated++
		return d.doLocal(p, op, coord)
	}
	d.stats.CrossServer++
	return d.doCross(p, op, coord, part, conflicted)
}

// doSingle routes a read or single-server update to its owner.
func (d *Driver) doSingle(p *simrt.Proc, op types.Op) (types.Inode, error) {
	d.stats.SingleServer++
	var target types.NodeID
	switch op.Kind {
	case types.OpLookup:
		target = d.pl.CoordinatorFor(op.Parent, op.Name)
	default: // stat, setattr live with the inode
		target = d.pl.ParticipantFor(op.Ino)
	}
	return d.request(p, wire.Msg{Type: wire.MsgSubOpReq, To: target, Op: op.ID,
		Sub: types.SingleSubOp(op), ReplyProc: op.ID.Proc})
}

// doLocal routes a colocated cross-server operation as one local
// transaction.
func (d *Driver) doLocal(p *simrt.Proc, op types.Op, server types.NodeID) (types.Inode, error) {
	return d.request(p, wire.Msg{Type: wire.MsgOpReq, To: server, Op: op.ID, FullOp: op, ReplyProc: op.ID.Proc})
}

// request sends req through the host and returns its reply's payload.
func (d *Driver) request(p *simrt.Proc, req wire.Msg) (types.Inode, error) {
	route := d.host.Open(req.Op)
	defer d.host.Done(req.Op)
	m, ok := d.host.Call(p, route, req)
	if !ok || !m.OK {
		d.stats.Failures++
	}
	if !ok {
		return types.Inode{}, types.ErrTimeout
	}
	return m.Attr, node.ReplyError(m)
}

// respState tracks the freshest response from one server.
type respState struct {
	have   bool
	ok     bool
	hint   types.OpID
	epoch  uint32
	err    string
	attr   types.Inode
	voided bool // invalidation notice received for this epoch; await re-exec
}

// doCross is the concurrent-execution path (§III.B): both sub-ops ship at
// once; the operation completes when the freshest response from each server
// is in hand (no invalidation outstanding) and the answers agree — or after
// an L-COM/ALL-NO round when they do not.
func (d *Driver) doCross(p *simrt.Proc, op types.Op, coord, part types.NodeID, conflicted *bool) (types.Inode, error) {
	cSub, pSub := types.Split(op)
	route := d.host.Open(op.ID)
	defer d.host.Done(op.ID)

	sendCoord := func() {
		d.host.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: op.ID, Sub: cSub, Peer: part, ReplyProc: op.ID.Proc})
	}
	sendPart := func() {
		d.host.Send(wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
	}
	sendCoord()
	sendPart()

	var rc, rp respState
	lcomSent := false
	silent := 0
	for {
		m, resend, ok := d.host.Await(p, route, &silent)
		if !ok {
			d.stats.Failures++
			return types.Inode{}, types.ErrTimeout
		}
		if resend {
			// Retransmit whatever is still outstanding; servers answer
			// duplicates from their pending state or reply cache.
			if !rc.have || rc.voided {
				sendCoord()
			}
			if !rp.have || rp.voided {
				sendPart()
			}
			if lcomSent {
				d.host.Send(wire.Msg{Type: wire.MsgLCom, To: coord, Op: op.ID, ReplyProc: op.ID.Proc})
			}
			continue
		}
		silent = 0 // any received message counts as progress
		switch m.Type {
		case wire.MsgAllNo:
			// 7b: every successful execution was aborted.
			d.stats.Failures++
			if rc.have && !rc.ok && rc.err != "" && rc.err != types.ErrInvalidated.Error() {
				return types.Inode{}, node.ReplyError(wire.Msg{Err: rc.err})
			}
			if rp.have && !rp.ok && rp.err != "" && rp.err != types.ErrInvalidated.Error() {
				return types.Inode{}, node.ReplyError(wire.Msg{Err: rp.err})
			}
			return types.Inode{}, types.ErrAborted
		case wire.MsgSubOpResp:
			st := &rc
			if m.From == part {
				st = &rp
			}
			d.absorb(st, m)
			// Any invalidation notice or re-executed (epoch > 1) response
			// means this operation went through conflict machinery.
			if st.voided || st.epoch > 1 {
				*conflicted = true
			}
		}
		if !rc.have || !rp.have || rc.voided || rp.voided || lcomSent {
			continue
		}
		switch {
		case rc.ok && rp.ok:
			return rc.attr, nil
		case !rc.ok && !rp.ok:
			// Agreement on failure: complete, commitment happens lazily.
			d.stats.Failures++
			if rc.err != "" {
				return types.Inode{}, node.ReplyError(wire.Msg{Err: rc.err})
			}
			return types.Inode{}, node.ReplyError(wire.Msg{Err: rp.err})
		default:
			// Disagreement: ask the coordinator for an immediate
			// commitment; ALL-NO completes the operation (§III.B step 2b).
			d.stats.Disagreements++
			lcomSent = true
			*conflicted = true
			d.host.Send(wire.Msg{Type: wire.MsgLCom, To: coord, Op: op.ID, ReplyProc: op.ID.Proc})
		}
	}
}

// absorb folds a response into the per-server state, honoring epochs: an
// invalidation notice voids the state until the re-execution response (same
// or higher epoch) arrives; stale lower-epoch responses are dropped.
func (d *Driver) absorb(st *respState, m wire.Msg) {
	invalid := m.Err == types.ErrInvalidated.Error()
	if st.have && m.Epoch < st.epoch {
		return // stale
	}
	if st.have && m.Epoch > st.epoch {
		d.stats.Supersedes++
	}
	if invalid {
		st.have = true
		st.epoch = m.Epoch
		st.voided = true
		return
	}
	if st.voided && m.Epoch < st.epoch {
		return
	}
	st.have = true
	st.ok = m.OK
	st.hint = m.Hint
	st.epoch = m.Epoch
	st.err = m.Err
	st.attr = m.Attr
	st.voided = false
}
