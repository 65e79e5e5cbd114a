package baseline_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/kvstore"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// TestDuplicateOpReqSuppressed pins the at-most-once admission of client
// requests on the three baseline servers. A mutating MsgOpReq retransmitted
// after its op completed is answered with the recorded reply and runs
// nothing; a duplicate that arrives while the original still executes gets
// no reply of its own. Both a single-server update and a colocated
// cross-server create are covered, since 2PC and CE execute them on
// different paths.
func TestDuplicateOpReqSuppressed(t *testing.T) {
	for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.Proto2PC, cluster.ProtoCE} {
		for _, kind := range []types.OpKind{types.OpSetAttr, types.OpCreate} {
			t.Run(fmt.Sprintf("%s/%v", proto, kind), func(t *testing.T) {
				c := buildProto(proto)
				defer c.Shutdown()
				done := false
				// t.Fatal would stall the simulation; failures are
				// reported with t.Errorf and a return instead.
				c.Sim.Spawn("t", func(p *simrt.Proc) {
					defer c.Sim.Stop()
					pr, host := c.Proc(0), c.Hosts[0]
					var file types.InodeID
					if kind == types.OpSetAttr {
						var err error
						if file, err = pr.Create(p, types.RootInode, "dup-target"); err != nil {
							t.Errorf("create: %v", err)
							return
						}
					}
					send := func(op types.Op, srv types.NodeID) {
						host.Send(wire.Msg{Type: wire.MsgOpReq, To: srv, Op: op.ID, FullOp: op, ReplyProc: op.ID.Proc})
					}

					// Retransmission after completion.
					op, srv := dupTestOp(c, pr, kind, file, "dup-done")
					b := c.Bases[srv]
					runs0 := b.Stats().SubOpsRun
					route := host.Open(op.ID)
					send(op, srv)
					first := route.Recv(p)
					if !first.OK {
						t.Errorf("original request failed: %s", first.Err)
						return
					}
					perExec := b.Stats().SubOpsRun - runs0
					rows, runs := shardRows(b.KV), b.Stats().SubOpsRun
					send(op, srv)
					if again := route.Recv(p); !reflect.DeepEqual(again, first) {
						t.Errorf("retransmission answered %+v, recorded reply %+v", again, first)
					}
					if got := b.Stats().SubOpsRun; got != runs {
						t.Errorf("retransmission ran %d sub-ops", got-runs)
					}
					if !reflect.DeepEqual(shardRows(b.KV), rows) {
						t.Error("retransmission changed the shard")
					}
					host.Done(op.ID)

					// A duplicate of an op still in flight.
					op, srv = dupTestOp(c, pr, kind, file, "dup-inflight")
					b = c.Bases[srv]
					runs = b.Stats().SubOpsRun
					route = host.Open(op.ID)
					send(op, srv)
					send(op, srv)
					if m := route.Recv(p); !m.OK {
						t.Errorf("request with an in-flight duplicate failed: %s", m.Err)
					}
					if m, ok := route.RecvTimeout(p, time.Second); ok {
						t.Errorf("in-flight duplicate got a second reply: %+v", m)
					}
					if got := b.Stats().SubOpsRun - runs; got != perExec {
						t.Errorf("op with an in-flight duplicate ran %d sub-ops, one execution runs %d", got, perExec)
					}
					host.Done(op.ID)
					done = true
				})
				c.Sim.RunUntil(time.Hour)
				if !done {
					t.Fatal("hung")
				}
			})
		}
	}
}

// dupTestOp builds a fresh mutating op of kind that one server executes
// whole, and returns it with that server: a setattr of file, or a create
// whose dentry and inode share a server.
func dupTestOp(c *cluster.Cluster, pr *cluster.Process, kind types.OpKind, file types.InodeID, prefix string) (types.Op, types.NodeID) {
	if kind == types.OpSetAttr {
		return types.Op{ID: pr.NextID(), Kind: types.OpSetAttr, Ino: file}, c.Placement.ParticipantFor(file)
	}
	for try := 0; ; try++ {
		name := fmt.Sprintf("%s-%d", prefix, try)
		ino := pr.AllocInode()
		if srv := c.Placement.CoordinatorFor(types.RootInode, name); srv == c.Placement.ParticipantFor(ino) {
			return types.Op{ID: pr.NextID(), Kind: types.OpCreate, Parent: types.RootInode,
				Name: name, Ino: ino, Type: types.FileRegular}, srv
		}
	}
}

// shardRows copies a server's volatile rows.
func shardRows(kv *kvstore.Store) map[string]string {
	rows := map[string]string{}
	kv.Range(func(k string, v []byte) bool {
		rows[k] = string(v)
		return true
	})
	return rows
}
