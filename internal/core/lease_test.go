package core

import (
	"testing"
	"time"

	"cxfs/internal/obs"
	"cxfs/internal/types"
)

// newTestLeaseTable builds a lease table with no server behind it: grant,
// revoke and Outstanding touch only the table.
func newTestLeaseTable(capacity int, ttl time.Duration) *LeaseTable {
	lt := NewLeaseTable(nil, ttl)
	lt.cap = capacity
	return lt
}

func TestLeaseTableGrantRevoke(t *testing.T) {
	now := 10 * time.Millisecond
	lt := newTestLeaseTable(8, 40*time.Millisecond)
	lt.grant(types.RootInode, "f", 3, now)
	lt.grant(types.RootInode, "f", 4, now)
	lt.grant(types.RootInode, "f", 3, now+time.Millisecond) // repeat holder

	holders := lt.revoke(types.RootInode, "f")
	if len(holders) != 2 || holders[0] != 3 || holders[1] != 4 {
		t.Errorf("holders=%v, want [3 4] in grant order (no duplicate for the repeat grant)", holders)
	}
	if again := lt.revoke(types.RootInode, "f"); again != nil {
		t.Errorf("second revoke returned %v, want nil", again)
	}
	if got := lt.revoke(types.RootInode, "never-leased"); got != nil {
		t.Errorf("revoking an unleased name returned %v", got)
	}
}

func TestLeaseTableOutstanding(t *testing.T) {
	lt := newTestLeaseTable(8, 40*time.Millisecond)
	lt.grant(types.RootInode, "a", 3, 0)
	lt.grant(types.RootInode, "b", 3, 20*time.Millisecond)
	if got := lt.Outstanding(30 * time.Millisecond); got != 2 {
		t.Errorf("Outstanding=%d before any expiry, want 2", got)
	}
	// "a" lapsed at 40ms; a repeat grant must have extended "b".
	lt.grant(types.RootInode, "b", 4, 50*time.Millisecond)
	if got := lt.Outstanding(70 * time.Millisecond); got != 1 {
		t.Errorf("Outstanding=%d at 70ms, want 1 (only the re-granted entry)", got)
	}
	lt.Reset()
	if got := lt.Outstanding(0); got != 0 {
		t.Errorf("Outstanding=%d after Reset, want 0", got)
	}
	if holders := lt.revoke(types.RootInode, "b"); holders != nil {
		t.Errorf("Reset left holders behind: %v", holders)
	}
}

func TestLeaseTableCapacityEviction(t *testing.T) {
	lt := newTestLeaseTable(2, time.Second)
	lt.grant(types.RootInode, "a", 3, 0)
	lt.grant(types.RootInode, "b", 3, 0)
	lt.grant(types.RootInode, "c", 3, 0) // evicts "a" silently
	if got := lt.Outstanding(0); got != 2 {
		t.Errorf("Outstanding=%d at cap 2, want 2", got)
	}
	if holders := lt.revoke(types.RootInode, "a"); holders != nil {
		t.Errorf("evicted entry still has holders: %v", holders)
	}
	if holders := lt.revoke(types.RootInode, "c"); len(holders) != 1 {
		t.Errorf("surviving entry lost its holder: %v", holders)
	}
}

func TestCacheFlushAndObserver(t *testing.T) {
	c := NewCache(8)
	o := obs.New(obs.Options{})
	c.SetObserver(o)
	c.Put(0, 0, grantMsg(0, types.RootInode, "f", 7, true, 1, time.Second))
	if _, _, _, ok := c.Get(1, types.RootInode, "f"); !ok {
		t.Fatal("warm entry missed")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("len=%d after Flush, want 0", c.Len())
	}
	if _, _, _, ok := c.Get(1, types.RootInode, "f"); ok {
		t.Error("flushed entry still served")
	}
	// Flush keeps counters and mirrors events into the observer.
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d after Flush, want 1/1", st.Hits, st.Misses)
	}
	if got := o.Counter("cache.hit"); got != 1 {
		t.Errorf("observer cache.hit=%d, want 1", got)
	}
	if got := o.Counter("cache.miss"); got != 1 {
		t.Errorf("observer cache.miss=%d, want 1", got)
	}
}
