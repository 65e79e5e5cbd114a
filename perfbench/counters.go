package main

import (
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/disk"
	"cxfs/internal/kvstore"
	"cxfs/internal/transport"
	"cxfs/internal/wal"
)

// counters is one reading of every layer's public Stats() accessors,
// summed over the servers and client drivers of a cluster. The benchmark
// reads them from outside the program; it adds no counter of its own. Each
// run uses a fresh cluster that has dispatched nothing before the run, so
// the reading taken after the run is the run's delta.
type counters struct {
	events uint64 // simrt: scheduler events dispatched
	net    transport.Stats

	msgsHandled, subOpsRun uint64 // node

	conflicts, immediate, lazy        uint64 // core (Cx servers)
	committed, aborted, invalidations uint64
	voteTimeouts                      uint64
	leaseGrants, leaseRevokes         uint64 // servers, every protocol with leases
	cache                             core.CacheStats

	wal  wal.Stats
	disk disk.Stats
	kv   kvstore.Stats
}

func readCounters(c *cluster.Cluster) counters {
	k := counters{events: c.Sim.EventsRun(), net: c.Net.Stats(), cache: c.CacheStats()}
	k.leaseGrants, k.leaseRevokes = c.LeaseStats()
	for _, b := range c.Bases {
		ns := b.Stats()
		k.msgsHandled += ns.MsgsHandled
		k.subOpsRun += ns.SubOpsRun
		ws := b.WAL.Stats()
		k.wal.Appends += ws.Appends
		k.wal.Records += ws.Records
		k.wal.BytesWritten += ws.BytesWritten
		k.wal.FullStalls += ws.FullStalls
		k.wal.GroupFlushes += ws.GroupFlushes
		ds := b.Disk.Stats()
		k.disk.Requests += ds.Requests
		k.disk.MechOps += ds.MechOps
		k.disk.Merged += ds.Merged
		k.disk.BusyTime += ds.BusyTime
		ks := b.KV.Stats()
		k.kv.Puts += ks.Puts
		k.kv.SyncWrites += ks.SyncWrites
		k.kv.FlushPages += ks.FlushPages
	}
	for _, srv := range c.CxSrv {
		st := srv.Stats()
		k.conflicts += st.Conflicts
		k.immediate += st.ImmediateCommits
		k.lazy += st.LazyBatches
		k.committed += st.OpsCommitted
		k.aborted += st.OpsAborted
		k.invalidations += st.Invalidations
		k.voteTimeouts += st.VoteTimeouts
	}
	return k
}

// add accumulates another run's deltas, for totals across sub-seeds.
func (k *counters) add(d counters) {
	k.events += d.events
	k.net.Messages += d.net.Messages
	k.net.Bytes += d.net.Bytes
	for i := range k.net.ByType {
		k.net.ByType[i] += d.net.ByType[i]
	}
	k.net.DroppedDown += d.net.DroppedDown
	k.net.DroppedUnroutable += d.net.DroppedUnroutable
	k.net.DroppedInvalid += d.net.DroppedInvalid
	k.net.DroppedFault += d.net.DroppedFault
	k.net.DroppedPartition += d.net.DroppedPartition
	k.msgsHandled += d.msgsHandled
	k.subOpsRun += d.subOpsRun
	k.conflicts += d.conflicts
	k.immediate += d.immediate
	k.lazy += d.lazy
	k.committed += d.committed
	k.aborted += d.aborted
	k.invalidations += d.invalidations
	k.voteTimeouts += d.voteTimeouts
	k.leaseGrants += d.leaseGrants
	k.leaseRevokes += d.leaseRevokes
	k.cache.Hits += d.cache.Hits
	k.cache.Misses += d.cache.Misses
	k.cache.Invalidations += d.cache.Invalidations
	k.cache.Revocations += d.cache.Revocations
	k.wal.Appends += d.wal.Appends
	k.wal.Records += d.wal.Records
	k.wal.BytesWritten += d.wal.BytesWritten
	k.wal.FullStalls += d.wal.FullStalls
	k.wal.GroupFlushes += d.wal.GroupFlushes
	k.disk.Requests += d.disk.Requests
	k.disk.MechOps += d.disk.MechOps
	k.disk.Merged += d.disk.Merged
	k.disk.BusyTime += d.disk.BusyTime
	k.kv.Puts += d.kv.Puts
	k.kv.SyncWrites += d.kv.SyncWrites
	k.kv.FlushPages += d.kv.FlushPages
}

// dropped sums every transport drop counter; a correct fault-free run
// loses no message.
func (k counters) dropped() uint64 {
	n := k.net
	return n.DroppedDown + n.DroppedUnroutable + n.DroppedInvalid + n.DroppedFault + n.DroppedPartition
}

// fingerprint pins a run's simulated timeline. Tracing, profiling and host
// speed must not move any field: a difference is a behaviour change.
type fingerprint struct {
	VirtualNs  time.Duration `json:"virtual_ns"`
	Messages   uint64        `json:"messages"`
	WALAppends uint64        `json:"wal_appends"`
	Immediate  uint64        `json:"immediate_launches"`
	Events     uint64        `json:"sim_events"`
}
