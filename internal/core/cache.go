package core

import (
	"time"

	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Cache is the client-side leased metadata cache: (dir, name) → inode
// bindings (including negative entries) filled by MsgLookupResp grants and
// served locally while the lease holds. It is the client half of the leased
// read path for every protocol that leases (Cx and SE): once attached to a
// host, its Lookup serves or fetches an entry and InvalidateOp gives the
// driver read-your-writes. An entry stops being servable when:
//
//   - its TTL lapses (the hard staleness bound when messages are lost);
//   - a revocation arrives (MsgConflictNotify with Path set) — the granting
//     server saw a mutation touch the entry;
//   - this client itself mutates the entry (read-your-writes: the driver
//     calls InvalidateOp before dispatching any mutation that names it);
//   - the granting server's lease epoch moves — any grant or revocation
//     carrying a higher epoch for that server proves a reboot, and entries
//     stamped by the old incarnation are fenced out lazily on access.
//
// The lookup fast path (Get) is allocation-free: struct map keys, no
// per-hit bookkeeping beyond counter increments.
type Cache struct {
	cap     int
	entries map[cacheKey]*cacheEntry
	order   []cacheKey              // FIFO for capacity eviction
	epochs  map[types.NodeID]uint64 // highest lease epoch seen per server

	host *node.Host

	// lastCached/lastGrant describe the most recent lookup — read by
	// harnesses immediately after the lookup returns, which is safe because
	// the cooperative scheduler cannot interleave another process between
	// Lookup's return and the caller's next statement.
	lastCached bool
	lastGrant  time.Duration
	lookupLog  map[types.OpID]lookupRec // per-op dispositions (TrackLookups)

	stats CacheStats
	obsv  *obs.Observer
}

// lookupRec is one completed lookup's cache disposition, kept per-op for
// pipelined harnesses (where LastLookup races between in-flight lookups).
type lookupRec struct {
	cached bool
	grant  time.Duration
}

type cacheKey struct {
	dir  types.InodeID
	name string
}

type cacheEntry struct {
	attr   types.Inode
	found  bool // negative entry when false
	server types.NodeID
	epoch  uint64        // lease epoch of the grant
	expire time.Duration // grant receive time + TTL
	grant  time.Duration // issue time of the filling request (staleness oracle)
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits          uint64 // lookups served locally (positive or negative)
	Misses        uint64 // lookups that went to the server
	Invalidations uint64 // entries dropped by this client's own mutations
	Revocations   uint64 // entries dropped by server revocation notices
	Expirations   uint64 // entries dropped at Get time by TTL lapse
	EpochFences   uint64 // entries dropped at Get time by a lease-epoch move
	Evictions     uint64 // entries dropped by the capacity bound
}

// DefaultCacheCap bounds the cache when the caller passes 0.
const DefaultCacheCap = 4096

// NewCache builds a leased metadata cache bounded at capacity entries
// (0 = DefaultCacheCap).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[cacheKey]*cacheEntry),
		epochs:  make(map[types.NodeID]uint64),
	}
}

// SetObserver mirrors cache counters into the observability layer
// (cache.hit / cache.miss / cache.invalidate / ...). Nil disables.
func (c *Cache) SetObserver(o *obs.Observer) { c.obsv = o }

// Attach binds the cache to the client host it serves: lookups that miss
// go out through h, and h's revocation hook is installed. A
// MsgConflictNotify with a Path is a lease revocation for this client,
// consumed before the per-op reply routes (it must never leak into an op's
// reply channel when its ID collides with an open route).
func (c *Cache) Attach(h *node.Host) {
	c.host = h
	h.SetNotify(func(m wire.Msg) bool {
		if m.Type == wire.MsgConflictNotify && m.Path != "" {
			c.Revoke(m.Dir, m.Path, m.From, m.LeaseEpoch)
			return true
		}
		return false
	})
}

// Lookup is the leased read path: it serves (op.Parent, op.Name) from the
// cache when a valid lease covers it, otherwise round-trips a MsgLookupReq
// to server, the dentry's coordinator, and installs the granted lease. How
// the lookup was served is recorded for LastLookup and TakeLookup.
func (c *Cache) Lookup(p *simrt.Proc, op types.Op, server types.NodeID) (types.Inode, error) {
	h := c.host
	if attr, found, grant, ok := c.Get(h.Sim.Now(), op.Parent, op.Name); ok {
		c.lastCached, c.lastGrant = true, grant
		if c.lookupLog != nil {
			c.lookupLog[op.ID] = lookupRec{cached: true, grant: grant}
		}
		if !found {
			return types.Inode{}, types.ErrNotFound
		}
		return attr, nil
	}
	c.lastCached, c.lastGrant = false, 0
	route := h.Open(op.ID)
	defer h.Done(op.ID)
	issued := h.Sim.Now()
	m, ok := h.Call(p, route, wire.Msg{Type: wire.MsgLookupReq, To: server, Op: op.ID,
		Dir: op.Parent, Path: op.Name, ReplyProc: op.ID.Proc})
	if !ok {
		return types.Inode{}, types.ErrTimeout
	}
	c.Put(issued, h.Sim.Now(), m)
	c.lastGrant = issued
	if c.lookupLog != nil {
		c.lookupLog[op.ID] = lookupRec{cached: false, grant: issued}
	}
	return m.Attr, node.ReplyError(m)
}

// InvalidateOp drops this client's cached view of every entry op mutates.
// Drivers call it before dispatching op (read-your-writes), unconditionally
// — even if the op later fails or times out, over-invalidation only costs a
// miss.
func (c *Cache) InvalidateOp(op types.Op) {
	if !op.Kind.Mutating() {
		return
	}
	c.Invalidate(op.Parent, op.Name)
	if op.Kind == types.OpRename {
		c.Invalidate(op.NewParent, op.NewName)
	}
}

// LastLookup reports whether the most recent Lookup was served from the
// cache, and the lease grant timestamp backing it. Only meaningful when
// read immediately after the Lookup returns (see the field comment). A nil
// cache reports an uncached lookup.
func (c *Cache) LastLookup() (cached bool, grant time.Duration) {
	if c == nil {
		return false, 0
	}
	return c.lastCached, c.lastGrant
}

// TrackLookups starts recording each completed lookup's cache disposition
// keyed by operation ID, for harvesting with TakeLookup. Only harnesses that
// drain every entry should enable it (the log grows until taken). A nil
// cache has nothing to track.
func (c *Cache) TrackLookups() {
	if c != nil && c.lookupLog == nil {
		c.lookupLog = make(map[types.OpID]lookupRec)
	}
}

// TakeLookup pops the recorded cache disposition of lookup id. ok is false
// when the lookup never resolved (timeout), tracking is off, or the cache is
// nil.
func (c *Cache) TakeLookup(id types.OpID) (cached bool, grant time.Duration, ok bool) {
	if c == nil {
		return false, 0, false
	}
	r, ok := c.lookupLog[id]
	if ok {
		delete(c.lookupLog, id)
	}
	return r.cached, r.grant, ok
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Len returns the live entry count (expired entries included until touched).
func (c *Cache) Len() int { return len(c.entries) }

// Get serves (dir, name) from the cache if a valid lease covers it. The
// third return is the entry's grant timestamp (for the staleness oracle);
// the last reports whether the cache answered at all. Expired and
// epoch-fenced entries are dropped on access.
func (c *Cache) Get(now time.Duration, dir types.InodeID, name string) (types.Inode, bool, time.Duration, bool) {
	e := c.entries[cacheKey{dir: dir, name: name}]
	if e == nil {
		c.stats.Misses++
		c.obsv.Inc("cache.miss", 1)
		return types.Inode{}, false, 0, false
	}
	if e.epoch < c.epochs[e.server] {
		// Granted by a previous incarnation of the server: recovery wiped
		// its lease table, so no revocation will ever arrive for this entry.
		c.drop(cacheKey{dir: dir, name: name})
		c.stats.EpochFences++
		c.stats.Misses++
		c.obsv.Inc("cache.fence", 1)
		c.obsv.Inc("cache.miss", 1)
		return types.Inode{}, false, 0, false
	}
	if now >= e.expire {
		c.drop(cacheKey{dir: dir, name: name})
		c.stats.Expirations++
		c.stats.Misses++
		c.obsv.Inc("cache.expire", 1)
		c.obsv.Inc("cache.miss", 1)
		return types.Inode{}, false, 0, false
	}
	c.stats.Hits++
	c.obsv.Inc("cache.hit", 1)
	return e.attr, e.found, e.grant, true
}

// Put installs a lookup response carrying a lease. issued is the request's
// issue time (recorded as the entry's grant stamp); now is the receive
// time, which anchors the TTL. Grants from an older incarnation of the
// server than one already seen are dropped.
func (c *Cache) Put(issued, now time.Duration, m wire.Msg) {
	if m.LeaseEpoch == 0 {
		return // no lease granted; nothing cachable
	}
	if m.LeaseEpoch < c.epochs[m.From] {
		return // stale grant from before the server's last observed reboot
	}
	c.noteEpoch(m.From, m.LeaseEpoch)
	k := cacheKey{dir: m.Dir, name: m.Path}
	e := c.entries[k]
	if e == nil {
		if len(c.order) >= c.cap {
			drop := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, drop)
			c.stats.Evictions++
			c.obsv.Inc("cache.evict", 1)
		}
		e = &cacheEntry{}
		c.entries[k] = e
		c.order = append(c.order, k)
	}
	*e = cacheEntry{attr: m.Attr, found: m.OK, server: m.From,
		epoch: m.LeaseEpoch, expire: now + m.LeaseTTL, grant: issued}
}

// Invalidate drops the entry for (dir, name) — called through InvalidateOp
// before a driver dispatches any of its own mutations naming the entry,
// preserving read-your-writes regardless of revocation delivery.
func (c *Cache) Invalidate(dir types.InodeID, name string) {
	k := cacheKey{dir: dir, name: name}
	if c.entries[k] != nil {
		c.drop(k)
		c.stats.Invalidations++
		c.obsv.Inc("cache.invalidate", 1)
	}
}

// Revoke handles a server revocation notice: the entry dies, and the
// notice's lease epoch advances the server's known incarnation so entries
// granted before a crash are fenced even if their own revocations were lost
// with the old lease table.
func (c *Cache) Revoke(dir types.InodeID, name string, server types.NodeID, epoch uint64) {
	c.noteEpoch(server, epoch)
	k := cacheKey{dir: dir, name: name}
	if c.entries[k] != nil {
		c.drop(k)
		c.stats.Revocations++
		c.obsv.Inc("cache.revoke", 1)
	}
}

// NoteEpoch records a server's lease epoch observed out of band (e.g. a
// grant on another code path); entries stamped with older epochs stop being
// servable.
func (c *Cache) NoteEpoch(server types.NodeID, epoch uint64) { c.noteEpoch(server, epoch) }

func (c *Cache) noteEpoch(server types.NodeID, epoch uint64) {
	if epoch > c.epochs[server] {
		c.epochs[server] = epoch
	}
}

// Flush drops every entry (verification harnesses call it so final reads
// hit the servers). Counters and known epochs survive.
func (c *Cache) Flush() {
	c.entries = make(map[cacheKey]*cacheEntry)
	c.order = nil
}

func (c *Cache) drop(k cacheKey) {
	delete(c.entries, k)
	for i, ok := range c.order {
		if ok == k {
			c.order = append(c.order[:i:i], c.order[i+1:]...)
			break
		}
	}
}
