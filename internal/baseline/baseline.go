// Package baseline implements the three existing approaches the paper
// compares Cx against (§II.B, Figure 1), plus the batched variant used in
// the evaluation:
//
//   - SE — Serial Execution, the PVFS2/OrangeFS protocol: the client
//     executes the participant's sub-op first, then the coordinator's, each
//     synchronously written into the database; a failure of the second
//     sub-op is compensated with a CLEAR message. This is the paper's
//     "OFS" baseline.
//   - SE-batched — the same serial protocol, but updated objects are logged
//     and batched modifications are lazily flushed into the database. This
//     is the paper's "OFS-batched" baseline, isolating the write-back
//     batching gain from the concurrency gain.
//   - 2PC — the Slice/Farsite/DCFS-style two-phase commit: VOTE, execute,
//     YES/NO, COMMIT-REQ/ABORT-REQ, ACK, then the client response; every
//     server logs before sending.
//   - CE — Central Execution, the Ursa Minor approach: the objects of the
//     participant sub-op migrate to the coordinator, the whole operation
//     executes locally under journaling, and the updated objects migrate
//     back.
//
// Each protocol provides a Server (embedding node.Base) and a Driver with
// the same Do signature as the Cx driver, so the cluster layer and the
// harness treat all four interchangeably.
package baseline

import (
	"sort"

	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// dupGuard gives a baseline server at-most-once semantics for retried
// client requests: a completed operation answers from a bounded reply
// cache, and a duplicate of one still executing is dropped (the original
// owns the eventual reply). Cx has richer pending-state to consult; the
// baselines just need this.
type dupGuard struct {
	inflight map[types.OpID]bool
	replies  map[types.OpID]wire.Msg
	order    []types.OpID
}

const dupCacheCap = 8192

func newDupGuard() *dupGuard {
	return &dupGuard{inflight: make(map[types.OpID]bool), replies: make(map[types.OpID]wire.Msg)}
}

// admit is the prologue of a client OpReq on every baseline server. It
// serves a readdir on the spot and passes a mutating op through claim. It
// reports whether the caller should execute the op; a caller that does
// owes a deferred abandon.
func (g *dupGuard) admit(b *node.Base, m wire.Msg) bool {
	op := m.FullOp
	if op.Kind == types.OpReaddir {
		b.ServeReaddir(m)
		return false
	}
	return !op.Kind.Mutating() || g.claim(b, op.ID, m.From)
}

// claim marks op executing and reports true, unless op is a duplicate: a
// completed op is answered to from with its recorded reply, and a
// duplicate of one still executing is dropped.
func (g *dupGuard) claim(b *node.Base, op types.OpID, from types.NodeID) bool {
	if reply, ok := g.replies[op]; ok {
		reply.To = from
		b.Send(reply)
		return false
	}
	if g.inflight[op] {
		return false
	}
	g.inflight[op] = true
	return true
}

// finish records the final reply and clears the inflight mark.
func (g *dupGuard) finish(op types.OpID, reply wire.Msg) {
	delete(g.inflight, op)
	if _, exists := g.replies[op]; !exists {
		if len(g.order) >= dupCacheCap {
			drop := g.order[0]
			g.order = g.order[1:]
			delete(g.replies, drop)
		}
		g.order = append(g.order, op)
	}
	g.replies[op] = reply
}

// abandon clears the inflight mark without caching (crash mid-execution);
// a retry after recovery re-executes. Safe to call after finish, and for
// an op that was never claimed.
func (g *dupGuard) abandon(op types.OpID) { delete(g.inflight, op) }

// execSingleSync runs a single-server op and writes its rows to the
// database before replying, the path 2PC and CE share. crashPoint names
// the crash point between the write and the reply.
func execSingleSync(p *simrt.Proc, b *node.Base, g *dupGuard, m wire.Msg, crashPoint string) {
	op := m.FullOp
	sub := types.SingleSubOp(op)
	b.ExecCPU(p)
	res := b.Shard.Exec(sub, b.NowNanos())
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: res.OK, Attr: res.Inode}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	if res.OK && sub.Action.Mutating() {
		b.KV.SyncKeys(p, res.Rows)
	}
	if b.CrashPoint(crashPoint, op.ID) {
		return
	}
	if op.Kind.Mutating() {
		g.finish(op.ID, reply)
	}
	b.Send(reply)
}

// lockTable serializes conflicting operations inside the 2PC and CE
// servers (their correctness depends on exclusive access for the duration
// of the transaction; Cx instead uses the active-object table).
type lockTable struct {
	sim  *simrt.Sim
	held map[types.ObjKey]bool
	q    map[types.ObjKey][]*simrt.Chan[struct{}]
}

func newLockTable(s *simrt.Sim) *lockTable {
	return &lockTable{sim: s, held: make(map[types.ObjKey]bool), q: make(map[types.ObjKey][]*simrt.Chan[struct{}])}
}

// acquire takes all keys in a canonical order (avoiding deadlock between
// two multi-key acquirers).
func (lt *lockTable) acquire(p *simrt.Proc, keys []types.ObjKey) {
	ordered := append([]types.ObjKey(nil), keys...)
	sort.Slice(ordered, func(i, j int) bool { return objKeyLess(ordered[i], ordered[j]) })
	for _, k := range ordered {
		for lt.held[k] {
			ch := simrt.NewChan[struct{}](lt.sim)
			lt.q[k] = append(lt.q[k], ch)
			ch.Recv(p)
		}
		lt.held[k] = true
	}
}

// release frees the keys, waking one waiter per key.
func (lt *lockTable) release(keys []types.ObjKey) {
	for _, k := range keys {
		if !lt.held[k] {
			continue
		}
		lt.held[k] = false
		if ws := lt.q[k]; len(ws) > 0 {
			lt.q[k] = ws[1:]
			ws[0].Send(struct{}{})
		}
	}
}

func objKeyLess(a, b types.ObjKey) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Ino < b.Ino
}
