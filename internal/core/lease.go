package core

import (
	"time"

	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// The leased read path. A client resolves (dir, name) with
// MsgLookupReq; the dentry's coordinator answers from its shard and stamps a
// read lease: an epoch tying the grant to this server incarnation and a TTL
// bounding how long the client may serve the entry from cache. The server
// remembers the grant in a LeaseTable and, whenever a mutation makes the
// entry active (provisional execution, rename, colocated transaction),
// piggybacks a revocation on the MsgConflictNotify vocabulary — the same
// message the conflict machinery already uses, distinguished by a non-empty
// Path. Correctness does not depend on revocation delivery: a lost
// revocation only lets a client serve the entry until the TTL lapses, and
// the model oracle's staleness bound (internal/model.CheckStalenessBound)
// permits exactly that window. Recovery wipes the table; a rebooted
// server's grants carry a higher lease epoch (Boot()+1), so clients fence
// out entries granted by the previous incarnation. The SE baseline serves
// its lookups through the same LeaseTable, and both protocols' drivers
// through the same Cache (cache.go).

// leaseTableCap bounds the lease table. Eviction is silent (no revocation):
// a client holding an evicted lease just loses revocation coverage and
// falls back to the TTL bound, the same exposure as a lost message.
const leaseTableCap = 8192

type leaseKey struct {
	dir  types.InodeID
	name string
}

type leaseEntry struct {
	// holders is insertion-ordered so revocation fan-out is deterministic
	// (map iteration order must never leak into the message sequence).
	holders []types.NodeID
	expire  time.Duration // sim time the newest grant lapses
}

// LeaseTable is the server side of the leased read path, shared by the Cx
// server and the SE baseline: it answers lookups with leases stamped for
// this incarnation, tracks which clients hold them, and sends the
// revocations when a mutation touches a leased entry.
type LeaseTable struct {
	base    *node.Base
	ttl     time.Duration
	cap     int
	entries map[leaseKey]*leaseEntry
	order   []leaseKey // FIFO for capacity eviction

	grants, revokes uint64
}

// NewLeaseTable builds the lease table of the server on base. ttl is the
// validity window stamped on grants; 0 disables leasing: lookups are still
// answered, but without a lease, so clients cannot cache.
func NewLeaseTable(base *node.Base, ttl time.Duration) *LeaseTable {
	return &LeaseTable{base: base, ttl: ttl, cap: leaseTableCap, entries: make(map[leaseKey]*leaseEntry)}
}

// epoch is the lease epoch stamped on this incarnation's grants and
// revocations. Boot()+1 keeps epoch 0 meaning "no lease" on the wire.
func (t *LeaseTable) epoch() uint64 { return t.base.Boot() + 1 }

// Serve answers a MsgLookupReq from the local shard with the inode plus a
// lease. Negative results are leased too (the client may cache the
// absence). It reports false when the server crashed while charging the
// lookup, in which case nothing is sent. Callers that must order lookups
// behind uncommitted mutations do so before calling Serve.
func (t *LeaseTable) Serve(p *simrt.Proc, m wire.Msg) bool {
	b := t.base
	boot := b.Boot()
	b.ExecCPU(p)
	if b.Gone(boot) {
		return false
	}
	in, found := b.Shard.ResolveEntry(m.Dir, m.Path)
	reply := wire.Msg{Type: wire.MsgLookupResp, To: m.From, Op: m.Op,
		OK: found, Dir: m.Dir, Path: m.Path, Attr: in}
	if !found {
		reply.Err = types.ErrNotFound.Error()
	}
	if t.ttl > 0 {
		reply.LeaseEpoch = t.epoch()
		reply.LeaseTTL = t.ttl
		t.grant(m.Dir, m.Path, m.From, b.Sim.Now())
		t.grants++
	}
	b.Send(reply)
	return true
}

// Revoke notifies every lease holder of the directory entry sub inserts or
// removes that the entry is changing, and forgets the leases; sub-ops that
// touch no entry revoke nothing. The notice is piggybacked on the
// MsgConflictNotify vocabulary; the client host recognizes a revocation by
// its non-empty Path. Servers call it the moment a mutation's execution
// lands — before commitment — because the old value may be unservable the
// instant the mutation becomes visible to anyone.
func (t *LeaseTable) Revoke(sub types.SubOp) {
	if sub.Action != types.ActInsertEntry && sub.Action != types.ActRemoveEntry {
		return
	}
	for _, h := range t.revoke(sub.Parent, sub.Name) {
		t.revokes++
		t.base.Send(wire.Msg{Type: wire.MsgConflictNotify, To: h, Op: sub.Op,
			Dir: sub.Parent, Path: sub.Name, LeaseEpoch: t.epoch()})
	}
}

// Stats returns cumulative grant and revocation-notice counts.
func (t *LeaseTable) Stats() (granted, revoked uint64) { return t.grants, t.revokes }

// grant records that client holds a lease on (dir, name) until now+ttl.
func (t *LeaseTable) grant(dir types.InodeID, name string, client types.NodeID, now time.Duration) {
	k := leaseKey{dir: dir, name: name}
	e := t.entries[k]
	if e == nil {
		if len(t.order) >= t.cap {
			drop := t.order[0]
			t.order = t.order[1:]
			delete(t.entries, drop)
		}
		e = &leaseEntry{}
		t.entries[k] = e
		t.order = append(t.order, k)
	}
	held := false
	for _, h := range e.holders {
		if h == client {
			held = true
			break
		}
	}
	if !held {
		e.holders = append(e.holders, client)
	}
	if exp := now + t.ttl; exp > e.expire {
		e.expire = exp
	}
}

// revoke forgets every lease on (dir, name) and returns the holders that
// need a revocation notice. Expired grants are returned too — notifying a
// client whose lease already lapsed is harmless.
func (t *LeaseTable) revoke(dir types.InodeID, name string) []types.NodeID {
	k := leaseKey{dir: dir, name: name}
	e := t.entries[k]
	if e == nil {
		return nil
	}
	delete(t.entries, k)
	for i, ok := range t.order {
		if ok == k {
			t.order = append(t.order[:i:i], t.order[i+1:]...)
			break
		}
	}
	return e.holders
}

// Outstanding returns how many entries carry leases unexpired at now (the
// chaos nemesis targets the server holding the most).
func (t *LeaseTable) Outstanding(now time.Duration) int {
	n := 0
	for _, e := range t.entries {
		if e.expire > now {
			n++
		}
	}
	return n
}

// Reset wipes the table (crash recovery: the new incarnation grants with a
// higher lease epoch, and old grants die by epoch fence or TTL).
func (t *LeaseTable) Reset() {
	t.entries = make(map[leaseKey]*leaseEntry)
	t.order = nil
}

// lookupSub is the read sub-op a LookupReq conflicts on: the same dentry
// key the mutation path holds active, so a lookup racing an uncommitted
// create/remove blocks behind it (and forces its commitment) instead of
// leasing a provisional value.
func lookupSub(m wire.Msg) types.SubOp {
	return types.SubOp{
		Op: m.Op, Kind: types.OpLookup, Role: types.RoleCoordinator,
		Action: types.ActReadEntry, Parent: m.Dir, Name: m.Path,
	}
}

// handleLookup serves the leased read path. A lookup touching an active
// object parks behind the holder exactly like a sub-op would — redispatch
// re-enters here once the holder commits — so no lease covers a
// provisional value.
func (s *Server) handleLookup(p *simrt.Proc, m wire.Msg) {
	sub := lookupSub(m)
	if key, ok := conflictKey(sub); ok {
		if holder, held := s.active[key]; held && holder.Proc != sub.Op.Proc {
			lm := m
			lm.Sub = sub
			s.block(lm, holder, 1)
			return
		}
	}
	if s.leases.Serve(p, m) {
		s.stats.Lookups++
	}
}
