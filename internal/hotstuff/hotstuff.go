// Package hotstuff implements a chained (pipelined) HotStuff baseline (Yin
// et al., PODC'19), the comparison system in the Leopard paper's
// evaluation. The leader batches full client requests into each proposal —
// the classic leader-dissemination design whose O(n) leader cost the paper
// identifies as the scalability bottleneck.
//
// The implementation follows the chained algorithm: each proposal carries a
// quorum certificate (QC) for its parent; a block commits when it heads a
// three-chain of consecutive heights. Votes are threshold-signature shares
// combined by the leader, and a simple pacemaker rotates leaders on
// timeout.
package hotstuff

import (
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/mempool"
	"leopard/internal/protocol"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// Default parameters; the batch size follows the paper's Table II.
const (
	DefaultBatchSize       = 800
	DefaultBatchTimeout    = 10 * time.Millisecond
	DefaultViewChangeAfter = 2 * time.Second
)

// Config parameterizes a HotStuff replica.
type Config struct {
	ID     types.ReplicaID
	Quorum types.QuorumParams
	Suite  crypto.Suite
	// BatchSize is the number of requests per proposal.
	BatchSize int
	// BatchTimeout bounds how long a partial batch waits.
	BatchTimeout time.Duration
	// ViewChangeTimeout is the pacemaker's stall threshold.
	ViewChangeTimeout time.Duration
}

// Validate checks cfg and fills defaults.
func (c *Config) Validate() error {
	if !c.Quorum.Valid() {
		return errors.New("hotstuff: invalid quorum parameters")
	}
	if int(c.ID) >= c.Quorum.N {
		return errors.New("hotstuff: replica id out of range")
	}
	if c.Suite == nil {
		return errors.New("hotstuff: missing crypto suite")
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = DefaultBatchTimeout
	}
	if c.ViewChangeTimeout <= 0 {
		c.ViewChangeTimeout = DefaultViewChangeAfter
	}
	return nil
}

// Block is one chained-HotStuff proposal.
type Block struct {
	Height   uint64
	Parent   types.Hash
	Justify  QC // certificate for the parent
	Proposer types.ReplicaID
	Requests []types.Request
}

// Digest hashes the block's identity-bearing fields.
func (b *Block) Digest() types.Hash {
	var buf []byte
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], b.Height)
	buf = append(buf, tmp[:]...)
	buf = append(buf, b.Parent[:]...)
	buf = append(buf, b.Justify.BlockHash[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(b.Proposer))
	buf = append(buf, tmp[:4]...)
	for _, r := range b.Requests {
		buf = r.AppendDigestInput(buf)
	}
	return crypto.HashBytes(buf)
}

// Size returns the wire size of the block.
func (b *Block) Size() int {
	s := 8 + 32 + 4 + b.Justify.Size()
	for _, r := range b.Requests {
		s += r.Size()
	}
	return s
}

// QC is a quorum certificate: a combined threshold signature over a block
// digest at a height.
type QC struct {
	BlockHash types.Hash
	Height    uint64
	Proof     crypto.Proof
}

// Size returns the certificate's wire size.
func (q QC) Size() int { return 32 + 8 + len(q.Proof.Sig) }

// ProposalMsg carries a proposal from the leader.
type ProposalMsg struct {
	Block *Block
	View  types.View
	// Digest caches H(Block). As with leopard.DatablockMsg, a receiver
	// hashes the block when Digest is zero and uses it otherwise; the
	// baseline runs only in process, so honest senders always fill it.
	Digest types.Hash
}

var _ transport.Message = (*ProposalMsg)(nil)

// WireSize implements transport.Message.
func (m *ProposalMsg) WireSize() int { return 16 + m.Block.Size() }

// Class and Policy implement transport.Message. HotStuff proposals embed
// the full request batch, so they ride the bulk lane and occupy the
// processing stage.
func (m *ProposalMsg) Class() transport.Class   { return transport.ClassBFTblock }
func (m *ProposalMsg) Policy() transport.Policy { return transport.PolicyBulk }

// VoteMsg is a replica's threshold share on a block digest.
type VoteMsg struct {
	BlockHash types.Hash
	Height    uint64
	Share     crypto.Share
}

var _ transport.Message = (*VoteMsg)(nil)

// WireSize implements transport.Message.
func (m *VoteMsg) WireSize() int { return 8 + 32 + 8 + len(m.Share.Sig) }

// Class and Policy implement transport.Message.
func (m *VoteMsg) Class() transport.Class   { return transport.ClassVote }
func (m *VoteMsg) Policy() transport.Policy { return transport.PolicyControl }

// TimeoutMsg is a pacemaker timeout vote for a view.
type TimeoutMsg struct {
	View   types.View
	HighQC QC
	Share  crypto.Share
}

var _ transport.Message = (*TimeoutMsg)(nil)

// WireSize implements transport.Message.
func (m *TimeoutMsg) WireSize() int { return 8 + 8 + m.HighQC.Size() + len(m.Share.Sig) }

// Class and Policy implement transport.Message.
func (m *TimeoutMsg) Class() transport.Class   { return transport.ClassViewChange }
func (m *TimeoutMsg) Policy() transport.Policy { return transport.PolicyControl }

// NewViewMsg announces a view change completion from the new leader.
type NewViewMsg struct {
	View   types.View
	HighQC QC
	Share  crypto.Share
}

var _ transport.Message = (*NewViewMsg)(nil)

// WireSize implements transport.Message.
func (m *NewViewMsg) WireSize() int { return 8 + 8 + m.HighQC.Size() + len(m.Share.Sig) }

// Class and Policy implement transport.Message.
func (m *NewViewMsg) Class() transport.Class   { return transport.ClassViewChange }
func (m *NewViewMsg) Policy() transport.Policy { return transport.PolicyControl }

func timeoutDigest(v types.View) types.Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return crypto.HashConcat([]byte("hotstuff/timeout"), buf[:])
}

func newViewDigest(v types.View, qc QC) types.Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return crypto.HashConcat([]byte("hotstuff/newview"), buf[:], qc.BlockHash[:])
}

// Stats are the per-node counters the experiments read.
type Stats struct {
	CommittedBlocks   int64
	CommittedRequests int64
	ViewChanges       int64
}

// Node is a chained-HotStuff replica.
type Node struct {
	cfg   Config
	suite crypto.Suite
	q     types.QuorumParams
	now   time.Duration

	reqPool *mempool.RequestPool
	execFn  protocol.ExecuteFunc

	view   types.View
	blocks map[types.Hash]*Block

	highQC   QC
	lockedQC QC
	lastVote uint64 // highest height voted

	// Leader vote collection per block digest.
	votes     map[types.Hash][]crypto.Share
	votesSeen map[types.Hash]map[types.ReplicaID]struct{}

	execHeight   uint64
	committed    map[types.Hash]struct{}
	lastProgress time.Duration
	lastPropose  time.Duration
	pendingQC    bool // leader: a proposal is outstanding without a QC yet

	timeoutVotes map[types.View]map[types.ReplicaID]struct{}
	sentTimeout  map[types.View]bool

	genesis types.Hash

	stats Stats

	// SkipRequestDedup disables confirmed-request bookkeeping, as in
	// leopard.Config.SkipRequestDedup.
	SkipRequestDedup bool
}

var (
	_ transport.Node   = (*Node)(nil)
	_ protocol.Replica = (*Node)(nil)
)

// NewNode builds a HotStuff replica.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:          cfg,
		suite:        cfg.Suite,
		q:            cfg.Quorum,
		reqPool:      mempool.NewRequestPoolLimits(mempool.Limits{}),
		view:         1,
		blocks:       make(map[types.Hash]*Block),
		votes:        make(map[types.Hash][]crypto.Share),
		votesSeen:    make(map[types.Hash]map[types.ReplicaID]struct{}),
		committed:    make(map[types.Hash]struct{}),
		timeoutVotes: make(map[types.View]map[types.ReplicaID]struct{}),
		sentTimeout:  make(map[types.View]bool),
		genesis:      crypto.HashBytes([]byte("hotstuff/genesis")),
	}
	// Install the genesis block at height 0 so the first proposal has a
	// parent and justify target.
	n.blocks[n.genesis] = &Block{Height: 0}
	n.highQC = QC{BlockHash: n.genesis, Height: 0}
	n.lockedQC = n.highQC
	return n, nil
}

// ID implements transport.Node.
func (n *Node) ID() types.ReplicaID { return n.cfg.ID }

// Leader implements protocol.Replica.
func (n *Node) Leader() types.ReplicaID { return types.LeaderOf(n.view, n.q.N) }

func (n *Node) isLeader() bool { return n.Leader() == n.cfg.ID }

// SetExecutor implements protocol.Replica.
func (n *Node) SetExecutor(fn protocol.ExecuteFunc) { n.execFn = fn }

// PendingRequests implements protocol.Replica.
func (n *Node) PendingRequests() int { return n.reqPool.Len() }

// SubmitSigned implements protocol.Replica. The baseline authenticates no
// clients, so sig is not checked. The payload is hashed once, into
// req.PayloadDigest, for the block digest.
func (n *Node) SubmitSigned(now time.Duration, req types.Request, sig []byte) mempool.Verdict {
	n.observe(now)
	req.PayloadDigest = crypto.HashBytes(req.Payload)
	return n.reqPool.Admit(req, now)
}

// Stats returns the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// View returns the current pacemaker view.
func (n *Node) View() types.View { return n.view }

func (n *Node) observe(now time.Duration) {
	if now > n.now {
		n.now = now
	}
}

// Start implements transport.Node.
func (n *Node) Start(now time.Duration, out transport.Sink) {
	n.observe(now)
	n.lastProgress = now
}

// Tick implements transport.Node.
func (n *Node) Tick(now time.Duration, out transport.Sink) {
	n.observe(now)
	if n.isLeader() {
		n.maybePropose(out)
	}
	if n.reqPool.Len() > 0 && now-n.lastProgress >= n.cfg.ViewChangeTimeout {
		n.voteTimeout(n.view, out)
	}
}

// Deliver implements transport.Node.
func (n *Node) Deliver(now time.Duration, from types.ReplicaID, msg transport.Message, out transport.Sink) {
	n.observe(now)
	switch m := msg.(type) {
	case *ProposalMsg:
		n.handleProposal(from, m, out)
	case *VoteMsg:
		n.handleVote(from, m, out)
	case *TimeoutMsg:
		n.handleTimeout(from, m, out)
	case *NewViewMsg:
		n.handleNewView(from, m, out)
	}
}

// maybePropose extends the chain from highQC once the previous proposal is
// certified (the chained pipeline: one proposal per QC round).
func (n *Node) maybePropose(out transport.Sink) {
	if n.pendingQC {
		return
	}
	full := n.reqPool.Len() >= n.cfg.BatchSize
	stale := n.now-n.lastPropose >= n.cfg.BatchTimeout
	if !full && !stale {
		return
	}
	// An empty proposal still advances the chain so earlier blocks can
	// commit via the three-chain rule, but only propose empties while
	// there is something uncommitted.
	reqs, _ := n.reqPool.Extract(n.cfg.BatchSize)
	if len(reqs) == 0 && n.highQC.Height <= n.execHeight {
		return
	}
	parent := n.highQC.BlockHash
	parentBlock := n.blocks[parent]
	if parentBlock == nil {
		return
	}
	block := &Block{
		Height:   parentBlock.Height + 1,
		Parent:   parent,
		Justify:  n.highQC,
		Proposer: n.cfg.ID,
		Requests: reqs,
	}
	digest := block.Digest()
	n.blocks[digest] = block
	n.pendingQC = true
	n.lastPropose = n.now
	out.Broadcast(&ProposalMsg{Block: block, View: n.view, Digest: digest})
	// The leader votes for its own proposal.
	n.castVote(block, digest, out)
}

// safeToVote implements the HotStuff voting rule: the block must extend the
// locked block, or carry a justify higher than the lock.
func (n *Node) safeToVote(b *Block) bool {
	if b.Height <= n.lastVote {
		return false
	}
	if b.Justify.Height > n.lockedQC.Height {
		return true
	}
	// Walk up from b to see whether it extends the locked block.
	cur := b
	for cur != nil && cur.Height > n.lockedQC.Height {
		if cur.Parent == n.lockedQC.BlockHash {
			return true
		}
		cur = n.blocks[cur.Parent]
	}
	return n.lockedQC.BlockHash == n.genesis
}

// handleProposal validates a proposal, applies its justify QC, and votes.
func (n *Node) handleProposal(from types.ReplicaID, m *ProposalMsg, out transport.Sink) {
	if m.Block == nil || from != n.Leader() || m.View != n.view {
		return
	}
	b := m.Block
	digest := m.Digest
	if digest.IsZero() {
		digest = b.Digest()
	}
	if _, dup := n.blocks[digest]; dup {
		return
	}
	// Verify and apply the embedded certificate (this is also how the
	// previous proposal's votes take effect — the pipelining).
	if b.Justify.BlockHash != n.genesis {
		if err := n.suite.VerifyProof(b.Justify.BlockHash, b.Justify.Proof); err != nil {
			return
		}
	}
	n.blocks[digest] = b
	n.applyQC(b.Justify, out)
	if !n.safeToVote(b) {
		return
	}
	n.castVote(b, digest, out)
}

// castVote signs the digest and sends the share to the current leader.
func (n *Node) castVote(b *Block, digest types.Hash, out transport.Sink) {
	share, err := n.suite.Sign(n.cfg.ID, digest)
	if err != nil {
		return
	}
	n.lastVote = b.Height
	vote := &VoteMsg{BlockHash: digest, Height: b.Height, Share: share}
	if n.isLeader() {
		n.collectVote(n.cfg.ID, vote, out)
		return
	}
	out.Send(transport.Unicast(n.Leader(), vote))
}

// handleVote collects shares into a QC at the leader.
func (n *Node) handleVote(from types.ReplicaID, m *VoteMsg, out transport.Sink) {
	if !n.isLeader() {
		return
	}
	n.collectVote(from, m, out)
}

func (n *Node) collectVote(from types.ReplicaID, m *VoteMsg, out transport.Sink) {
	if _, known := n.blocks[m.BlockHash]; !known {
		return
	}
	seen := n.votesSeen[m.BlockHash]
	if seen == nil {
		seen = make(map[types.ReplicaID]struct{}, n.q.Quorum())
		n.votesSeen[m.BlockHash] = seen
	}
	if _, dup := seen[from]; dup {
		return
	}
	if err := n.suite.VerifyShare(m.BlockHash, m.Share); err != nil || m.Share.Signer != from {
		return
	}
	seen[from] = struct{}{}
	n.votes[m.BlockHash] = append(n.votes[m.BlockHash], m.Share)
	if len(n.votes[m.BlockHash]) < n.q.Quorum() {
		return
	}
	proof, err := n.suite.Combine(m.BlockHash, n.votes[m.BlockHash])
	if err != nil {
		return
	}
	delete(n.votes, m.BlockHash)
	delete(n.votesSeen, m.BlockHash)
	qc := QC{BlockHash: m.BlockHash, Height: m.Height, Proof: proof}
	n.pendingQC = false
	n.applyQC(qc, out)
	// Pipelining: the QC ships inside the next proposal rather than as a
	// separate broadcast; propose immediately if a batch is ready.
	n.maybePropose(out)
}

// applyQC advances highQC/lock and runs the three-chain commit rule.
func (n *Node) applyQC(qc QC, out transport.Sink) {
	if qc.Height > n.highQC.Height {
		n.highQC = qc
	}
	b := n.blocks[qc.BlockHash]
	if b == nil {
		return
	}
	// Two-chain: lock the parent of the newly certified block.
	parent := n.blocks[b.Parent]
	if parent != nil && b.Justify.Height > n.lockedQC.Height {
		n.lockedQC = b.Justify
	}
	// Three-chain commit: b_grandparent commits when b is certified and
	// heights are consecutive.
	if parent == nil {
		return
	}
	gp := n.blocks[parent.Parent]
	if gp == nil {
		return
	}
	if b.Height == parent.Height+1 && parent.Height == gp.Height+1 {
		n.commitUpTo(gp, out)
	}
}

// commitUpTo executes the chain up to and including b, oldest first.
func (n *Node) commitUpTo(b *Block, out transport.Sink) {
	if b.Height <= n.execHeight {
		return
	}
	var chain []*Block
	cur := b
	for cur != nil && cur.Height > n.execHeight {
		chain = append(chain, cur)
		cur = n.blocks[cur.Parent]
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].Height < chain[j].Height })
	for _, blk := range chain {
		// The chain walk only collects heights above execHeight, so each
		// block executes exactly once.
		if n.execFn != nil && len(blk.Requests) > 0 {
			n.execFn(types.SeqNum(blk.Height), blk.Requests)
		}
		if !n.SkipRequestDedup {
			for _, r := range blk.Requests {
				n.reqPool.MarkConfirmed(r.ID())
			}
		}
		n.stats.CommittedBlocks++
		n.stats.CommittedRequests += int64(len(blk.Requests))
	}
	n.execHeight = b.Height
	n.lastProgress = n.now
}

// voteTimeout broadcasts a pacemaker timeout for view v.
func (n *Node) voteTimeout(v types.View, out transport.Sink) {
	if n.sentTimeout[v] || v < n.view {
		return
	}
	share, err := n.suite.Sign(n.cfg.ID, timeoutDigest(v))
	if err != nil {
		return
	}
	n.sentTimeout[v] = true
	n.recordTimeout(v, n.cfg.ID)
	out.Broadcast(&TimeoutMsg{View: v, HighQC: n.highQC, Share: share})
}

func (n *Node) recordTimeout(v types.View, from types.ReplicaID) {
	votes := n.timeoutVotes[v]
	if votes == nil {
		votes = make(map[types.ReplicaID]struct{}, n.q.Quorum())
		n.timeoutVotes[v] = votes
	}
	votes[from] = struct{}{}
}

// handleTimeout counts timeout votes; 2f+1 move the pacemaker to v+1.
func (n *Node) handleTimeout(from types.ReplicaID, m *TimeoutMsg, out transport.Sink) {
	if m.View < n.view {
		return
	}
	if err := n.suite.VerifyShare(timeoutDigest(m.View), m.Share); err != nil || m.Share.Signer != from {
		return
	}
	n.recordTimeout(m.View, from)
	if m.HighQC.Height > n.highQC.Height {
		if n.blocks[m.HighQC.BlockHash] != nil &&
			n.suite.VerifyProof(m.HighQC.BlockHash, m.HighQC.Proof) == nil {
			n.highQC = m.HighQC
		}
	}
	if len(n.timeoutVotes[m.View]) >= n.q.Small() && !n.sentTimeout[m.View] {
		n.voteTimeout(m.View, out)
	}
	if len(n.timeoutVotes[m.View]) >= n.q.Quorum() {
		n.advanceView(m.View+1, out)
	}
}

// advanceView installs view v; the new leader announces itself.
func (n *Node) advanceView(v types.View, out transport.Sink) {
	if v <= n.view {
		return
	}
	n.view = v
	n.stats.ViewChanges++
	n.lastProgress = n.now
	n.pendingQC = false
	if n.isLeader() {
		share, err := n.suite.Sign(n.cfg.ID, newViewDigest(v, n.highQC))
		if err == nil {
			out.Broadcast(&NewViewMsg{View: v, HighQC: n.highQC, Share: share})
		}
		n.maybePropose(out)
	}
}

// handleNewView accepts the new leader's announcement.
func (n *Node) handleNewView(from types.ReplicaID, m *NewViewMsg, out transport.Sink) {
	if m.View <= n.view || types.LeaderOf(m.View, n.q.N) != from {
		return
	}
	if err := n.suite.VerifyShare(newViewDigest(m.View, m.HighQC), m.Share); err != nil {
		return
	}
	// Adopt the view; the quorum behind it is implied by the leader's
	// willingness to be exposed (a lightweight pacemaker, as in
	// implementations that piggyback TCs).
	n.view = m.View
	n.stats.ViewChanges++
	n.lastProgress = n.now
}
