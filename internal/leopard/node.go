package leopard

import (
	"encoding/binary"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/erasure"
	"leopard/internal/mempool"
	"leopard/internal/obs"
	"leopard/internal/protocol"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// instance is one agreement instance: one serial number in one view.
type instance struct {
	block *types.BFTblock
	// rounds are Alg. 2's two rounds, round k at rounds[k-1]: round 1 signs
	// H(m) and its certificate σ1 notarizes, round 2 signs H(σ1) and σ2
	// confirms.
	rounds     [2]round
	state      types.BlockState
	missing    map[types.Hash]struct{} // linked datablocks not yet held
	proposedAt time.Duration
}

// round is one agreement round of an instance: replicas sign its digest, the
// leader combines 2f+1 shares into its certificate, and replicas verify that.
type round struct {
	// digest is what the round signs: H(m) once the block is held, H(σ1)
	// once it is notarized; zero before.
	digest types.Hash
	// lock is the digest a vote reloaded at Start signed, zero without one:
	// the round signs no other, and round 1 takes no proposal with another.
	lock  types.Hash
	voted bool  // this replica's vote cast in this life
	tally tally // leader only: the shares toward cert
	cert  *crypto.Proof
}

// round returns round k (1 or 2) of inst, nil for any other k.
func (inst *instance) round(k int) *round {
	if k < 1 || k > len(inst.rounds) {
		return nil
	}
	return &inst.rounds[k-1]
}

// admits reports whether the round may sign d: it signs no other digest
// yet, and no vote reloaded at Start pinned it to another.
func (r *round) admits(d types.Hash) bool {
	return (r.digest.IsZero() || r.digest == d) && (r.lock.IsZero() || r.lock == d)
}

// viewRecord is everything a replica holds that dies with the view. NewNode
// and enterNewView build it with newViewRecord and nothing else makes its
// maps, so entering a view cannot carry one over or forget one.
type viewRecord struct {
	// instances are the view's agreement instances by serial number, vote
	// locks included.
	instances map[types.SeqNum]*instance
	// earlyProofs holds proofs of this view that overtook their block, one
	// per round, from the view's leader only.
	earlyProofs map[types.SeqNum][]earlyProof
	// redo is what the new-view message promised for each slot it re-agrees:
	// the digest the leader's proposal there must have.
	redo map[types.SeqNum]types.Hash

	// The ready collector (leader only). readyOrder lists, per voter and
	// oldest first, the digests in readyVotes the voter announced ahead of
	// their body; it is what bounds readyVotes (shedReadyVote).
	readyVotes map[types.Hash]map[types.ReplicaID]struct{}
	readyOrder map[types.ReplicaID][]types.Hash
	readySet   map[types.Hash]struct{} // enqueued or linked
	readyQueue []types.Hash
}

func newViewRecord() *viewRecord {
	return &viewRecord{
		instances:   make(map[types.SeqNum]*instance),
		earlyProofs: make(map[types.SeqNum][]earlyProof),
		redo:        make(map[types.SeqNum]types.Hash),
		readyVotes:  make(map[types.Hash]map[types.ReplicaID]struct{}),
		readyOrder:  make(map[types.ReplicaID][]types.Hash),
		readySet:    make(map[types.Hash]struct{}),
	}
}

// unconfirmed reports whether the view holds a proposal that is not
// confirmed yet. It reads the instances, which every path that settles a
// slot updates or deletes (confirmBlock, applyTransferredRecord,
// releaseSettled, enterNewView), so there is no counter to leak.
func (v *viewRecord) unconfirmed() bool {
	for _, inst := range v.instances {
		if inst.block != nil && inst.state < types.StateConfirmed {
			return true
		}
	}
	return false
}

// slot is what a replica knows about one serial number whatever the view. It
// is made on first use (Node.slot) and let go in one place, releaseSettled,
// once both the watermark and the execution frontier have passed it.
type slot struct {
	// notarized is the highest-view σ1 certificate this replica has learned
	// for the serial number (learnNotarization), Block nil before the first.
	// It outlives the view that produced it because the quorum-intersection
	// argument behind the redo plan needs every replica that ever saw a σ1
	// proof for a slot to keep advertising it in its view-change messages —
	// a block can be confirmed and executed at one replica and then vanish
	// from every live instance after a cascade of failed view changes,
	// letting a later redo replace it with a dummy (the analog of PBFT
	// carrying prepared certificates across views). The same argument must
	// survive crash-restarts of the σ2 voters, so the certificate is also
	// persisted with the round-2 vote (storage.NoteRecord) and reloaded at
	// Start.
	notarized NotarizedBlock
	// block is the confirmed block, the output log's entry, and sigma1 and
	// sigma2 its own certificates, which the WAL record carries. A redo can
	// notarize the slot again in a later view before this block executes,
	// so notarized above may by then certify a re-stamped copy.
	block          *types.BFTblock
	sigma1, sigma2 crypto.Proof
	// checkpoint collects the checkpoint shares at the leader.
	checkpoint tally
}

// retrievalState tracks recovery of one missing datablock (Alg. 3).
type retrievalState struct {
	firstMissing time.Duration
	queried      bool
	queriedAt    time.Duration
	// offered is the chunk set each responder first offered; its later
	// responses count only in that set.
	offered map[types.ReplicaID]chunkSet
	// chunks maps chunk set -> chunk index -> chunk bytes. Responses in
	// different sets are collected separately; a set whose decode fails
	// the digest check is discarded.
	chunks  map[chunkSet]map[int][]byte
	waiters map[types.SeqNum]struct{}
}

// chunkSet is what a retrieval response claims about the encoding: the
// Merkle root its chunk verifies under and the length the chunks decode to.
type chunkSet struct {
	root    types.Hash
	dataLen int
}

// earlyProof is a proof that arrived before its BFTblock.
type earlyProof struct {
	round  int
	digest types.Hash
	proof  crypto.Proof
}

// Stats are the per-node counters the experiments read.
type Stats struct {
	ConfirmedRequests int64
	ConfirmedBlocks   int64
	ExecutedBlocks    int64
	DatablocksMade    int64
	DatablocksHeld    int64
	Retrievals        int64 // datablocks recovered via Alg. 3
	ViewChanges       int64
	View              types.View
	Stages            *obs.StageTimer

	// Durability and recovery counters (zero without a Store).
	LastCheckpointSeq  types.SeqNum // newest stable checkpoint applied
	LogSegments        int64        // live WAL segment files
	LogBytes           int64        // live WAL bytes
	BlocksReplayed     int64        // WAL records replayed at Start
	BytesReplayed      int64        // byte volume of those records
	StateReqsServed    int64        // state-transfer responses sent to peers
	StateRespsReceived int64        // state-transfer responses received
	StateBlocksApplied int64        // blocks applied via state transfer
	SkippedBlocks      int64        // blocks jumped over by adopting a checkpoint, never executed here
	WALErrors          int64        // persistence failures (append/meta/reset)
	// WALFailed reports the fail-stop state: the store's backing medium
	// has a sticky write/fsync failure, so the replica has stopped voting
	// and proposing (it can no longer persist what it signs).
	WALFailed bool
	// VotesLogged counts vote-ahead records persisted this session;
	// VotesReloaded counts vote locks restored from the store at Start.
	VotesLogged   int64
	VotesReloaded int64
	// NotesLogged counts notarization certificates persisted alongside
	// round-2 votes; NotesReloaded counts certificates restored onto their
	// slots at Start.
	NotesLogged   int64
	NotesReloaded int64
	// CheckpointSeqsTracked is how many serial numbers the leader holds
	// checkpoint shares for — bounded by the watermark window (regression:
	// TestCheckpointMapsPruned).
	CheckpointSeqsTracked int

	// Client serving path counters (client-signed admission + replies).
	PendingRequests  int   // gauge: extractable mempool entries
	QueuedRequests   int   // gauge: nonce-gapped mempool entries
	AdmittedRequests int64 // requests admitted (pending or queued)
	RejectedRequests int64 // admission rejections, all causes
	RateLimited      int64 // rejections from per-client token buckets
	BadSignatures    int64 // rejections from signature verification
	RepliesSent      int64 // signed ReplyMsgs emitted after execution

	// Batch fill. A full batch left because it reached its size
	// (DatablockSize requests, BFTBlockSize links); a partial one because
	// the previous one had come back. DatablockRequests / DatablocksMade
	// and ProposedLinks / ProposedBlocks are the mean fills; redo proposals
	// of a view change are not counted.
	PartialDatablocks int64 // of DatablocksMade
	DatablockRequests int64 // requests packed into DatablocksMade
	ProposedBlocks    int64 // BFTblocks this replica proposed
	PartialBlocks     int64 // of ProposedBlocks, with fewer than BFTBlockSize links
	ProposedLinks     int64 // datablock links in ProposedBlocks
}

// Node is a Leopard replica. It implements transport.Node and must be
// driven from a single goroutine (simnet does this; the TCP runtime
// serializes events onto one apply loop).
type Node struct {
	cfg    Config
	suite  crypto.Suite
	q      types.QuorumParams
	now    time.Duration
	execFn protocol.ExecuteFunc

	reqPool *mempool.RequestPool
	// datablocks is the datablock table: one record per digest, holding
	// the body and everything else that lives exactly as long as it
	// (dbEntry). refs indexes the held bodies by (generator, counter) for
	// Alg. 1's repetitive-counter rule. releaseSettled drops a record and
	// its refs key together, with the block that linked it.
	datablocks map[types.Hash]*dbEntry
	refs       map[types.DatablockRef]struct{}
	// executed is each generator's ledger of executed counters: it keeps
	// the duplicate rule for datablocks whose records are released.
	executed  map[types.ReplicaID]*counterLedger
	dbCounter uint64
	// myOutstanding maps each of this replica's own datablocks that is not
	// yet confirmed to the time it was packed. Its length is the
	// flow-control window, and the clock for partial datablocks (none
	// leaves while it is non-empty); the times feed the Table IV stage
	// breakdown. Entries go in settleOwn, or all at once at an anchor jump
	// (adoptCheckpoint). It is not part of the datablock table, and neither
	// is missing: each ends at another moment (confirmation, arrival), and
	// each is read on every pack or tick (the window's size, the retrieval
	// timers), which over the table would be a scan of the whole pool.
	myOutstanding map[types.Hash]time.Duration

	// Agreement state, grouped by what ends it: cur dies with the view,
	// a slot when the watermark and the execution frontier have passed it.
	// nextSeq is the next serial number this replica proposes as leader.
	view    types.View
	cur     *viewRecord
	lw      types.SeqNum
	slots   map[types.SeqNum]*slot
	nextSeq types.SeqNum

	// Execution.
	executedTo types.SeqNum
	// execState is the running chain hash over executed block digests; it
	// is the checkpointed "execution state" (the consensus layer is
	// application-agnostic, as in the paper).
	execState types.Hash

	// Retrieval state: the datablocks this replica waits for.
	missing map[types.Hash]*retrievalState
	// rs is the retrieval codec, built on first use and reused so its
	// lazily-built multiplication tables and decode-matrix cache persist
	// across datablocks (rebuilding it per call would defeat both).
	rs *erasure.Codec

	lastCheckpoint *CheckpointProofMsg

	// Durability and recovery (recovery.go). store mirrors cfg.Store;
	// counterReserve is the persisted datablock counter ceiling. needSync
	// marks a restarted (or gap-detected) replica that should probe peers
	// for state transfer; lastStateReq / stateRound pace and rotate those
	// probes; stateServed is the responder-side per-requester cooldown
	// (bounded at N-1 entries).
	store          storage.Store
	counterReserve uint64
	needSync       bool
	lastStateReq   time.Duration
	stateRound     int
	stateServed    map[types.ReplicaID]stateServeState
	// behindSince is when the execution frontier first stalled (-1 while
	// advancing normally); feeds the stuckBehind grace period.
	behindSince time.Duration
	// maxConfirmed is the highest serial number in the confirmed log;
	// frontierStalled compares it against executedTo to detect gaps.
	maxConfirmed types.SeqNum
	// prunedTo is the releaseSettled cursor: every sn at or below it has
	// been let go.
	prunedTo types.SeqNum

	// walFailed latches the fail-stop state once store.Err() reports the
	// backing medium failed: the replica stops packing, proposing, voting
	// and checkpointing — it cannot durably log what it signs — while
	// read-only service (retrieval, state transfer) continues.
	walFailed bool

	// View change.
	inViewChange bool
	pendingView  types.View // target view while a view change is in flight
	vcStartedAt  time.Duration
	// vcPatience is the current escalation patience: how long a pending
	// view change may stall before this replica votes for the next view.
	// Starts at 4×ViewChangeTimeout on entering a view change, doubles per
	// escalation up to ViewChangeMaxTimeout, resets when a view completes.
	vcPatience time.Duration
	// timeoutVotes holds the timeout votes for leaving each view from this
	// one up, this replica's own among them, and vcMsgs the view-change
	// messages for each view above that this replica would lead. Both are
	// bounded per sender (shedOldestView) and released by enterNewView.
	timeoutVotes map[types.View]map[types.ReplicaID]struct{}
	vcMsgs       map[types.View]map[types.ReplicaID]*ViewChangeMsg
	lastProgress time.Duration
	// futureBlocks buffers proposals for views this replica has not
	// entered yet (control-plane messages can overtake the new-view
	// announcement); replayed on entering the view. Bounded.
	futureBlocks []*BFTblockMsg

	// replyFn, when set, receives a signed ReplyMsg for every executed
	// request (SetReplySink); replaying suppresses emission during WAL
	// replay at Start.
	replyFn   func(ReplyMsg)
	replaying bool
	// lastReply caches the newest signed reply per client so a request that
	// re-arrives after confirmation — a client that missed the original
	// certificate — gets its ReplyMsg re-emitted instead of a bare
	// dup-confirmed rejection. Bounded FIFO over clients (replyOrder).
	lastReply  map[uint64]ReplyMsg
	replyOrder []uint64

	stats  Stats
	stages obs.StageTimer
}

var _ transport.Node = (*Node)(nil)

// NewNode builds a Leopard replica from cfg.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:           cfg,
		suite:         cfg.Suite,
		q:             cfg.Quorum,
		reqPool:       mempool.NewRequestPoolLimits(cfg.Mempool),
		datablocks:    make(map[types.Hash]*dbEntry),
		refs:          make(map[types.DatablockRef]struct{}),
		executed:      make(map[types.ReplicaID]*counterLedger),
		myOutstanding: make(map[types.Hash]time.Duration),
		view:          1,
		cur:           newViewRecord(),
		slots:         make(map[types.SeqNum]*slot),
		nextSeq:       1,
		missing:       make(map[types.Hash]*retrievalState),
		timeoutVotes:  make(map[types.View]map[types.ReplicaID]struct{}),
		vcMsgs:        make(map[types.View]map[types.ReplicaID]*ViewChangeMsg),
		lastReply:     make(map[uint64]ReplyMsg),
		store:         cfg.Store,
		stateServed:   make(map[types.ReplicaID]stateServeState),
		lastStateReq:  -1,
		behindSince:   -1,
	}
	n.stats.Stages = &n.stages
	return n, nil
}

// ID implements transport.Node.
func (n *Node) ID() types.ReplicaID { return n.cfg.ID }

// SetExecutor registers the execution callback invoked for every confirmed
// block in log order. Must be called before Start.
func (n *Node) SetExecutor(fn protocol.ExecuteFunc) { n.execFn = fn }

// View returns the current view number.
func (n *Node) View() types.View { return n.view }

// InViewChange reports whether the replica has stopped the normal case and
// is waiting for a new view to form.
func (n *Node) InViewChange() bool { return n.inViewChange }

// Leader returns the leader of the current view.
func (n *Node) Leader() types.ReplicaID { return types.LeaderOf(n.view, n.q.N) }

// isLeader reports whether this replica leads the current view.
func (n *Node) isLeader() bool { return n.Leader() == n.cfg.ID }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	s := n.stats
	s.View = n.view
	s.DatablocksHeld = int64(len(n.refs))
	if n.lastCheckpoint != nil {
		s.LastCheckpointSeq = n.lastCheckpoint.Seq
	}
	if n.store != nil {
		st := n.store.Stats()
		s.LogSegments = st.Segments
		s.LogBytes = st.LiveBytes
	}
	for _, sl := range n.slots {
		if len(sl.checkpoint.counts) > 0 {
			s.CheckpointSeqsTracked++
		}
	}
	s.WALFailed = n.walFailed
	s.PendingRequests = n.reqPool.Len()
	s.QueuedRequests = n.reqPool.Queued()
	ps := n.reqPool.Stats()
	s.AdmittedRequests = ps.Admitted
	s.RejectedRequests = ps.Rejected + s.BadSignatures
	s.RateLimited = ps.RateLimited
	return s
}

// LastCheckpoint returns the newest stable checkpoint certificate this
// replica holds, or nil. Read-only: the harness's invariant checker
// verifies the quorum proof against the cluster's chain.
func (n *Node) LastCheckpoint() *CheckpointProofMsg { return n.lastCheckpoint }

// ExecutionState returns the running execution chain hash — the state the
// checkpoint protocol certifies. Recovery tests compare it across restarts.
func (n *Node) ExecutionState() types.Hash { return n.execState }

// PendingRequests returns the mempool depth.
func (n *Node) PendingRequests() int { return n.reqPool.Len() }

// ExecutedTo returns the highest consecutively executed serial number.
func (n *Node) ExecutedTo() types.SeqNum { return n.executedTo }

// LogBlock returns the confirmed block at sn, if any. Part of the public
// API so applications can audit the output log. Entries at or below the
// low watermark are garbage-collected once executed (the stable checkpoint
// certificate stands in for them), so audits should track the live window.
func (n *Node) LogBlock(sn types.SeqNum) (*types.BFTblock, bool) {
	b := n.confirmedBlock(sn)
	return b, b != nil
}

// slot returns the slot for sn, making it on first use.
func (n *Node) slot(sn types.SeqNum) *slot {
	s := n.slots[sn]
	if s == nil {
		s = &slot{}
		n.slots[sn] = s
	}
	return s
}

// confirmedBlock returns the confirmed block at sn, nil while there is none.
func (n *Node) confirmedBlock(sn types.SeqNum) *types.BFTblock {
	if s := n.slots[sn]; s != nil {
		return s.block
	}
	return nil
}

// Datablock returns a datablock by digest from the local pool. Its bytes
// may borrow from a received frame, so they are valid only until the
// checkpoint that releases the datablock; a caller that keeps them past
// the node's next event must copy them.
func (n *Node) Datablock(h types.Hash) (*types.Datablock, bool) {
	db := n.body(h)
	return db, db != nil
}

// Stage names for the Table IV latency breakdown.
const (
	StageGeneration    = "datablock_generation"
	StageDissemination = "datablock_dissemination"
	StageAgreement     = "agreement"
)

// SubmitSigned verifies a client-signed request and admits it to the
// mempool, returning the admission verdict. It is the only way a request
// enters a replica: the client port, the simulated drivers and the tests
// all come through here. Replicas without a Verifier accept the request
// unverified (the signature is carried but not checked). It hashes the
// payload once, into req.PayloadDigest, overwriting whatever the caller
// put there: the signature check and the datablock digest both use it.
func (n *Node) SubmitSigned(now time.Duration, req types.Request, sig []byte) mempool.Verdict {
	n.observe(now)
	req.PayloadDigest = crypto.HashBytes(req.Payload)
	if n.cfg.Verifier != nil && !n.cfg.Verifier.VerifyRequest(req, sig) {
		n.stats.BadSignatures++
		return mempool.BadSignature
	}
	v := n.reqPool.Admit(req, now)
	if v.OK() {
		n.trace(obs.EvRequestAdmitted, req.ClientID, int64(req.Seq))
	}
	if v == mempool.DupConfirmed || v == mempool.StaleSeq {
		n.resendReply(req)
	}
	return v
}

// maxReplyCache bounds the per-client last-reply cache (FIFO over clients).
const maxReplyCache = 1024

// cacheReply records the newest signed reply per client, evicting the
// oldest-admitted client once the bound is reached.
func (n *Node) cacheReply(r ReplyMsg) {
	if _, ok := n.lastReply[r.Client]; !ok {
		if len(n.replyOrder) >= maxReplyCache {
			delete(n.lastReply, n.replyOrder[0])
			n.replyOrder = n.replyOrder[1:]
		}
		n.replyOrder = append(n.replyOrder, r.Client)
	}
	n.lastReply[r.Client] = r
}

// resendReply re-emits the cached signed reply for a request that re-arrived
// after confirmation — the pool reports such arrivals as DupConfirmed or,
// once the confirmation folded into the client's consumed watermark, as
// StaleSeq. Either way a client that missed the original certificate still
// completes. Only the client's newest executed seq is cached; older dups
// stay bare rejections (the client has necessarily moved past them).
func (n *Node) resendReply(req types.Request) {
	if n.replyFn == nil {
		return
	}
	if r, ok := n.lastReply[req.ClientID]; ok && r.Seq == req.Seq {
		n.replyFn(r)
		n.stats.RepliesSent++
	}
}

// SetReplySink registers the callback that carries signed execution replies
// toward clients; the transport layer (simnet driver, TCP runtime) owns the
// actual delivery. Replies are emitted once per request execution — not
// during WAL replay, which re-executes history the clients of a previous
// life already saw. Must be called before Start.
func (n *Node) SetReplySink(fn func(ReplyMsg)) { n.replyFn = fn }

// observe advances the node clock.
func (n *Node) observe(now time.Duration) {
	if now > n.now {
		n.now = now
	}
}

// trace records one lifecycle event on the configured tracer, stamped with
// the node clock and current view. Emit is nil-safe, so untraced replicas
// pay one pointer check per site.
func (n *Node) trace(kind obs.EventKind, id uint64, aux int64) {
	n.cfg.Tracer.Emit(n.now, kind, uint64(n.view), id, aux)
}

// traceID compresses a digest into a trace event id (first 8 bytes,
// big-endian) — enough to correlate lifecycle stages across replicas.
func traceID(h types.Hash) uint64 { return binary.BigEndian.Uint64(h[:8]) }

// Start implements transport.Node. With a Store configured, Start first
// recovers the durable state (checkpoint anchor + WAL replay) and, when
// that reveals a prior life, probes peers for state transfer.
func (n *Node) Start(now time.Duration, out transport.Sink) {
	n.observe(now)
	n.lastProgress = now
	if n.store != nil {
		n.recoverFromStore(out)
	}
}

// Tick implements transport.Node.
func (n *Node) Tick(now time.Duration, out transport.Sink) {
	n.observe(now)
	n.checkStoreHealth()
	if !n.walFailed {
		n.maybePackDatablocks(out)
		if n.isLeader() && !n.inViewChange {
			n.maybePropose(out)
		}
	}
	n.checkRetrievalTimers(out)
	n.maybeRequestState(out)
	if !n.walFailed {
		n.checkViewChangeTimer(out)
	}
}

// checkStoreHealth latches the fail-stop state when the store reports a
// sticky backing-medium failure. A replica that cannot persist its votes
// and executed blocks must stop participating in agreement: continuing
// would let a later crash erase state it already signed for, turning a
// disk fault into a safety hazard. Read paths keep serving.
func (n *Node) checkStoreHealth() {
	if n.walFailed || n.store == nil {
		return
	}
	if err := n.store.Err(); err != nil {
		n.walFailed = true
		n.stats.WALErrors++
	}
}

// Deliver implements transport.Node.
func (n *Node) Deliver(now time.Duration, from types.ReplicaID, msg transport.Message, out transport.Sink) {
	n.observe(now)
	// Every Leopard message carries its own handler; anything else a
	// transport hands over is not for this node.
	if m, ok := msg.(wireMessage); ok {
		m.deliver(n, from, out)
	}
}
