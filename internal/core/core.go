// Package core implements Cx, the paper's primary contribution: concurrent
// execution of cross-server operation sub-ops with lazy, batched
// commitment.
//
// # Protocol summary (§III)
//
// A client process sends the two sub-operations of a cross-server operation
// to the coordinator and participant *concurrently*. Each server executes
// provisionally, synchronously appends a Result-Record, and answers YES/NO
// immediately. If both answers agree the process considers the operation
// complete; the commitment — VOTE, COMMIT-REQ/ABORT-REQ, ACK, then a
// Complete-Record — is deferred and batched with other pending commitments,
// launched by a timeout or threshold trigger (§IV.A) or when the log fills.
// If the answers disagree, the process sends L-COM and the coordinator runs
// an immediate commitment that aborts the successful side and replies
// ALL-NO.
//
// Objects touched by an executed-but-uncommitted operation are *active*.
// A sub-op from a different process touching an active object raises a
// conflict: it blocks, and the pending operation is committed immediately
// (the coordinator is notified with C-NOTIFY when the participant detects
// the conflict). Ordered conflicts simply wait. Disordered conflicts —
// where the participant executed the later arrival first — are resolved by
// enforcing the coordinator's order: the VOTE carries the coordinator's
// blocked-follower set (Enforce), and the participant *invalidates* any
// executed operation in that set (undo + Invalidate-Record + re-queue with
// a bumped execution epoch), then executes the voted operation.
//
// # Departures from the paper's text (documented in DESIGN.md)
//
//   - Conflict hints are carried exactly as described, but operation
//     completion is driven by explicit invalidation notices plus execution
//     epochs rather than hint equality alone: hint equality as the sole
//     rule deadlocks when two operations conflict on only one of their two
//     servers (the paper's figures only cover the both-server overlap).
//   - A participant voting on an operation it has not yet executed (the
//     sub-op is in flight or blocked) resolves the vote by waiting for
//     arrival, waiting for the blocking operation's commitment, or applying
//     the Enforce rule; a bounded wait (Config.VoteWait) backstops the rare
//     wait-cycle, aborting an operation whose client cannot yet have
//     considered it complete.
//   - Aborted operations leave a bounded tombstone set so a late-arriving
//     or re-queued sub-op of an aborted operation cannot execute after the
//     fact.
package core

import (
	"fmt"
	"sort"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Config tunes the Cx server.
type Config struct {
	// Timeout is the lazy-commitment timeout trigger (paper default 10s);
	// 0 disables it.
	Timeout time.Duration
	// Threshold launches a batch when this many operations are pending;
	// 0 disables it.
	Threshold int
	// IdleTrigger launches a batch when the server has received no sub-op
	// requests for this long while work is pending — the alternative
	// trigger the paper's §IV.A leaves as future work ("such as system
	// idle time"). 0 disables it. Idle commitments cost nothing the
	// workload would notice: the disk and network are quiet by definition.
	IdleTrigger time.Duration
	// VoteWait bounds how long a participant vote waits for a sub-op to
	// arrive or a blocking commitment to finish before voting NO.
	VoteWait time.Duration
	// RetryInterval paces VOTE/COMMIT-REQ retransmission to a crashed or
	// slow peer.
	RetryInterval time.Duration
	// TombstoneCap bounds the aborted-operation tombstone set.
	TombstoneCap int
	// NoPiggyback disables carrying other same-participant pending
	// operations on an immediate commitment's round — an ablation knob for
	// benchmarks; production keeps it off (piggybacking on).
	NoPiggyback bool
	// AdaptiveLazy makes the commit daemon's lazy period track log
	// pressure: the wait shrinks toward an eager cadence as the log nears
	// its prune threshold (so pruning starts before appends stall on a full
	// log) and stretches when the server is idle with nothing pending (so a
	// quiet server burns no batches). Off by default; Timeout stays the
	// fixed period of the paper's §IV.A trigger.
	AdaptiveLazy bool
	// RecoveryFreeze models the fixed phase of §V recovery: the failure
	// detection subsystem confirms the crash, the rebooted node informs
	// every collaborating server to enter the recovery state, and the file
	// system stops responding to new requests. In the paper this fixed
	// cost dominates small backlogs (5KB of valid records still takes 3s),
	// which is what makes Table V sublinear.
	RecoveryFreeze time.Duration
	// Obs receives protocol-phase trace events and latency samples. Nil
	// (the default) disables all recording at the cost of one pointer
	// check per site — the hot path is unaffected.
	Obs *obs.Observer
}

// DefaultConfig mirrors the paper's experimental defaults.
func DefaultConfig() Config {
	return Config{
		Timeout:        10 * time.Second,
		Threshold:      0,
		VoteWait:       2 * time.Second,
		RetryInterval:  3 * time.Second,
		TombstoneCap:   8192,
		RecoveryFreeze: 500 * time.Millisecond,
	}
}

// Stats counts protocol events for the harness.
type Stats struct {
	Conflicts         uint64 // sub-ops blocked on an active object
	ImmediateCommits  uint64 // commitment batches launched by conflict/L-COM/log-full
	LazyBatches       uint64 // commitment batches launched by a trigger
	OpsCommitted      uint64
	OpsAborted        uint64
	Invalidations     uint64
	VoteTimeouts      uint64
	LateInvalidations uint64 // invalidation notices for ops a client completed (must stay 0)
	Renames           uint64 // committed rename transactions (extension)
	AdaptiveShrinks   uint64 // lazy periods shortened by log pressure
	AdaptiveStretches uint64 // lazy periods stretched by idleness
	Lookups           uint64 // LookupReq served (leased read path)
}

// coordOp is a pending cross-server operation on its coordinator.
type coordOp struct {
	id          types.OpID
	sub         types.SubOp
	ok          bool
	undo        *namespace.Undo
	beforeImgs  []types.RowImage // recovery-rebuilt ops roll back via images
	rows        []string
	participant types.NodeID
	client      types.NodeID
	epoch       uint32
	committing  bool
	lcom        bool     // client asked for ALL-NO
	reqMsg      wire.Msg // original request, for re-queue after invalidation
	lastResp    wire.Msg // recorded response, for duplicate suppression
}

// partOp is a pending cross-server operation on its participant.
type partOp struct {
	id          types.OpID
	sub         types.SubOp
	ok          bool
	undo        *namespace.Undo
	beforeImgs  []types.RowImage
	rows        []string
	coordinator types.NodeID
	client      types.NodeID
	epoch       uint32
	committing  bool
	reqMsg      wire.Msg
	lastResp    wire.Msg
	since       time.Duration // execution time, for staleness nudges
}

// flushEntry is an operation whose outcome is durable in the log but whose
// database pages have not been written back yet. Entries drain at the next
// lazy batch: one merged flush, then the log records prune. Immediate
// commitments only queue here — per §IV.C.2, they cost messages and
// individual log writes, never an individual database flush.
type flushEntry struct {
	id   types.OpID
	rows []string
}

// blockedReq is a sub-op parked behind an active object.
type blockedReq struct {
	msg    wire.Msg
	holder types.OpID // pending op whose commitment it awaits
	epoch  uint32
	hint   types.OpID // set when released
}

// wantEntry is one remembered commitment request for a not-yet-seen op.
type wantEntry struct {
	lcom bool
	from types.NodeID // who asked (participant for C-NOTIFY, client for L-COM)
	at   time.Duration
}

// kickReq asks the commit daemon to run.
type kickReq struct {
	ops  []types.OpID // immediate targets; nil = lazy batch of everything
	lazy bool
}

// Server is one Cx metadata server.
type Server struct {
	*node.Base
	cfg Config
	pl  namespace.Placement

	pendingCoord map[types.OpID]*coordOp
	pendingPart  map[types.OpID]*partOp
	flushQ       []flushEntry

	active     map[types.ObjKey]types.OpID // executed-pending op holding each object
	waiters    map[types.OpID][]*blockedReq
	blockedOf  map[types.OpID]*blockedReq // cross-server sub-op blocked here, by its op
	tombstones map[types.OpID]bool

	arrivalSig  map[types.OpID][]*simrt.Chan[struct{}]
	completeSig map[types.OpID][]*simrt.Chan[struct{}]

	kick *simrt.Chan[kickReq]
	// voteResp/ackResp route batched VOTE and ACK replies back to the
	// rpcVotes/rpcAck round that sent the request, keyed by the batch's
	// first operation. Keying by participant instead would cross-wire two
	// concurrent rounds for the same participant — recovery's resume loop
	// runs while the commit daemon drives rebuilt operations — leaving one
	// round retrying forever against a deregistered channel.
	voteResp map[types.OpID]*simrt.Chan[wire.Msg]
	ackResp  map[types.OpID]*simrt.Chan[wire.Msg]

	// Per-operation reply routes for rename transactions (lazily built).
	renameVote map[types.OpID]*simrt.Chan[wire.Msg]
	renameAck  map[types.OpID]*simrt.Chan[wire.Msg]

	// wantCommit remembers commitment requests (C-NOTIFY/L-COM) for ops
	// whose coordinator sub-op has not executed here yet. If the sub-op
	// never materializes (it died with a coordinator crash), the entry
	// expires into a presumed abort — safe, because without a coordinator
	// execution the client cannot have completed the operation.
	wantCommit map[types.OpID]wantEntry

	recovering bool
	lastArrive time.Duration // most recent sub-op arrival, for the idle trigger

	// replyCache retains the final response of recently completed
	// operations so a duplicate (retried) sub-op request is answered
	// instead of re-executed — at-most-once execution for retrying
	// clients. Bounded FIFO.
	replyCache map[types.OpID]wire.Msg
	replyOrder []types.OpID
	// localInflight marks OpReq operations currently executing on the
	// local (colocated/rename) path, so a retried duplicate is dropped
	// instead of re-executed.
	localInflight map[types.OpID]bool

	// leases tracks which clients hold read leases on this server's
	// directory entries; mutations revoke through it (piggybacked on
	// C-NOTIFY). Wiped on recovery — a rebooted server's grants carry a
	// higher lease epoch, and clients fence out the old incarnation's.
	leases *LeaseTable

	stats Stats
}

// NewServer builds a Cx server on the given chassis; leases is the
// server's lease table (see NewLeaseTable).
func NewServer(base *node.Base, pl namespace.Placement, cfg Config, leases *LeaseTable) *Server {
	if cfg.VoteWait <= 0 {
		cfg.VoteWait = 2 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 3 * time.Second
	}
	if cfg.TombstoneCap <= 0 {
		cfg.TombstoneCap = 8192
	}
	s := &Server{
		Base:          base,
		cfg:           cfg,
		pl:            pl,
		pendingCoord:  make(map[types.OpID]*coordOp),
		pendingPart:   make(map[types.OpID]*partOp),
		active:        make(map[types.ObjKey]types.OpID),
		waiters:       make(map[types.OpID][]*blockedReq),
		blockedOf:     make(map[types.OpID]*blockedReq),
		tombstones:    make(map[types.OpID]bool),
		arrivalSig:    make(map[types.OpID][]*simrt.Chan[struct{}]),
		completeSig:   make(map[types.OpID][]*simrt.Chan[struct{}]),
		kick:          simrt.NewChan[kickReq](base.Sim),
		voteResp:      make(map[types.OpID]*simrt.Chan[wire.Msg]),
		ackResp:       make(map[types.OpID]*simrt.Chan[wire.Msg]),
		wantCommit:    make(map[types.OpID]wantEntry),
		replyCache:    make(map[types.OpID]wire.Msg),
		localInflight: make(map[types.OpID]bool),
		leases:        leases,
	}
	return s
}

// Stats returns a snapshot of protocol counters.
func (s *Server) Stats() Stats { return s.stats }

// PendingOps returns how many cross-server operations await commitment here
// as coordinator (the paper's threshold-trigger quantity).
func (s *Server) PendingOps() int { return len(s.pendingCoord) }

// ValidBytes returns the log bytes held by operations still awaiting
// commitment — the paper's "valid-records size" (Figure 7b, Table V).
func (s *Server) ValidBytes() int64 { return s.WAL.LiveBytes() }

// ActiveObjects returns how many objects are currently active (held by
// executed-but-uncommitted operations); zero after quiescence.
func (s *Server) ActiveObjects() int { return len(s.active) }

// DebugOp reports an op's state on this server (diagnostics).
func (s *Server) DebugOp(op types.OpID) string {
	if co := s.pendingCoord[op]; co != nil {
		return fmt.Sprintf("pendingCoord committing=%v participant=%v lcom=%v", co.committing, co.participant, co.lcom)
	}
	if po := s.pendingPart[op]; po != nil {
		return fmt.Sprintf("pendingPart committing=%v coordinator=%v", po.committing, po.coordinator)
	}
	if s.tombstones[op] {
		return "tombstoned"
	}
	if we, ok := s.wantCommit[op]; ok {
		return fmt.Sprintf("wantCommit lcom=%v from=%v at=%v", we.lcom, we.from, we.at)
	}
	return "absent"
}

// nudgeStaleParts sends C-NOTIFY to the coordinator of every
// not-yet-committing participant execution matched by pred, in a
// deterministic operation order (map iteration order must not leak into
// the message sequence).
func (s *Server) nudgeStaleParts(pred func(*partOp) bool) {
	var ids []types.OpID
	for _, po := range s.pendingPart {
		if !po.committing && pred(po) {
			ids = append(ids, po.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return opLess(ids[i], ids[j]) })
	for _, id := range ids {
		po := s.pendingPart[id]
		s.Send(wire.Msg{Type: wire.MsgConflictNotify, To: po.coordinator, Op: po.id})
	}
}

// KickCommit launches a lazy commitment batch immediately, as the harness's
// quiesce step and the log-full handler do.
func (s *Server) KickCommit() {
	s.kick.Send(kickReq{lazy: true})
}

// Start launches the inbox loop and the commitment trigger daemon.
func (s *Server) Start() {
	s.Base.Start(s.handle)
	s.WAL.SetFullHandler(func() {
		// The log is full: force commitments so pruning can free space —
		// both the operations this server coordinates and, via C-NOTIFY,
		// the participant-role backlog whose coordinators are idle.
		s.stats.ImmediateCommits++
		s.kick.Send(kickReq{lazy: true})
		s.nudgeStaleParts(func(po *partOp) bool { return true })
	})
	s.Sim.Spawn("cx/commitd", s.commitDaemon)
	if s.cfg.IdleTrigger > 0 {
		s.Sim.Spawn("cx/idled", s.idleDaemon)
	}
}

// idleDaemon fires a lazy batch whenever the server has seen no new sub-op
// for IdleTrigger while commitments are pending — the paper's future-work
// idle-time trigger.
func (s *Server) idleDaemon(p *simrt.Proc) {
	period := s.cfg.IdleTrigger
	for {
		p.Sleep(period / 2)
		if s.Crashed() || s.recovering {
			continue
		}
		if len(s.pendingCoord) == 0 && len(s.flushQ) == 0 {
			continue
		}
		if s.Sim.Now()-s.lastArrive < period {
			continue
		}
		s.stats.LazyBatches++
		s.kick.Send(kickReq{lazy: true})
	}
}

// handle dispatches one inbound message (runs in its own Proc). A rebooted
// server drops *everything* until its log rebuild completes — critically,
// a pre-rebuild participant must never blind-ACK a decision it has not
// persisted — and keeps dropping *client* traffic until the whole §V
// recovery finishes ("the whole file system stops responding new
// requests"). Peers retry VOTE and COMMIT-REQ, so nothing is lost.
func (s *Server) handle(p *simrt.Proc, m wire.Msg) {
	if s.NeedsRecovery() {
		return
	}
	if s.recovering {
		switch m.Type {
		case wire.MsgSubOpReq, wire.MsgOpReq, wire.MsgLCom, wire.MsgLookupReq:
			return
		}
	}
	switch m.Type {
	case wire.MsgSubOpReq:
		s.handleSubOp(p, m)
	case wire.MsgLookupReq:
		s.handleLookup(p, m)
	case wire.MsgOpReq:
		s.handleLocalOp(p, m)
	case wire.MsgLCom:
		if s.cfg.Obs.TraceOn() {
			s.cfg.Obs.Emit(s.Sim.Now(), int(s.ID), m.Op, obs.PhaseLCom, "")
		}
		s.requestCommitFrom(m.Op, true, m.From)
	case wire.MsgConflictNotify:
		s.requestCommitFrom(m.Op, false, m.From)
	case wire.MsgVote:
		if len(m.Ops) == 0 && m.Sub.Action != types.ActNone {
			s.handleRenameVote(p, m) // per-op 2PC vote (rename extension)
			return
		}
		s.handleVote(p, m)
	case wire.MsgVoteResp:
		if len(m.Ops) > 0 { // batched reply: echoes the round's op set
			if ch := s.voteResp[m.Ops[0]]; ch != nil {
				ch.Send(m)
			}
			return
		}
		if s.renameVote != nil {
			if ch := s.renameVote[m.Op]; ch != nil {
				ch.Send(m)
			}
		}
	case wire.MsgCommitReq:
		s.handleCommitReq(p, m)
	case wire.MsgAck:
		if len(m.Ops) > 0 { // batched reply: echoes the round's op set
			if ch := s.ackResp[m.Ops[0]]; ch != nil {
				ch.Send(m)
			}
			return
		}
		if s.renameAck != nil {
			if ch := s.renameAck[m.Op]; ch != nil {
				ch.Send(m)
			}
		}
	}
}

// conflictKey returns the single object key a sub-op conflicts on.
func conflictKey(sub types.SubOp) (types.ObjKey, bool) {
	keys := sub.Keys()
	if len(keys) == 0 {
		return types.ObjKey{}, false
	}
	return keys[0], true
}

// signal helpers ------------------------------------------------------------

func (s *Server) waitChan(m map[types.OpID][]*simrt.Chan[struct{}], op types.OpID) *simrt.Chan[struct{}] {
	ch := simrt.NewChan[struct{}](s.Sim)
	m[op] = append(m[op], ch)
	return ch
}

func (s *Server) fire(m map[types.OpID][]*simrt.Chan[struct{}], op types.OpID) {
	for _, ch := range m[op] {
		ch.Send(struct{}{})
	}
	delete(m, op)
}

// cacheReply retains a completed operation's response for duplicate
// suppression (bounded FIFO).
func (s *Server) cacheReply(op types.OpID, m wire.Msg) {
	const cap = 8192
	if _, exists := s.replyCache[op]; !exists {
		if len(s.replyOrder) >= cap {
			drop := s.replyOrder[0]
			s.replyOrder = s.replyOrder[1:]
			delete(s.replyCache, drop)
		}
		s.replyOrder = append(s.replyOrder, op)
	}
	s.replyCache[op] = m
}

// tombstone records an aborted op so late sub-ops cannot execute.
func (s *Server) tombstone(op types.OpID) {
	if len(s.tombstones) >= s.cfg.TombstoneCap {
		// Bounded memory: drop the whole generation. A lost tombstone can
		// only matter for a message still in flight, which the cap keeps
		// wildly improbable; correctness degradation is an orphaned row,
		// the same exposure SE has by design.
		s.tombstones = make(map[types.OpID]bool)
	}
	s.tombstones[op] = true
}
