// Package hotstuff implements a chained (pipelined) HotStuff baseline (Yin
// et al., PODC'19), the comparison system in the Leopard paper's
// evaluation. The leader batches full client requests into each proposal —
// the classic leader-dissemination design whose O(n) leader cost the paper
// identifies as the scalability bottleneck.
//
// The implementation follows the chained algorithm: each proposal carries a
// quorum certificate (QC) for its parent; a block commits when it heads a
// three-chain of consecutive heights. Votes are threshold-signature shares
// combined by the leader. The baseline models only the normal case: the
// leader of view 1 proposes for the whole run, and there is no pacemaker.
// The QC is also the batching clock: the leader proposes a full batch, or
// whatever is pending, as soon as no proposal is waiting for its QC.
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

// DefaultBatchSize follows the paper's Table II.
const DefaultBatchSize = 800

// Config parameterizes a HotStuff replica.
type Config struct {
	ID     types.ReplicaID
	Quorum types.QuorumParams
	Suite  crypto.Suite
	// BatchSize is the most requests one proposal carries.
	BatchSize int
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

// view is the baseline's only view; its leader proposes for the whole run.
const view types.View = 1

// Node is a chained-HotStuff replica.
type Node struct {
	cfg   Config
	suite crypto.Suite
	q     types.QuorumParams

	reqPool *mempool.RequestPool
	execFn  protocol.ExecuteFunc

	blocks map[types.Hash]*Block

	highQC   QC
	lockedQC QC
	lastVote uint64 // highest height voted

	// Leader vote collection per block digest.
	votes     map[types.Hash][]crypto.Share
	votesSeen map[types.Hash]map[types.ReplicaID]struct{}

	execHeight uint64
	pendingQC  bool // leader: a proposal is outstanding without a QC yet

	genesis types.Hash

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
		cfg:       cfg,
		suite:     cfg.Suite,
		q:         cfg.Quorum,
		reqPool:   mempool.NewRequestPoolLimits(mempool.Limits{}),
		blocks:    make(map[types.Hash]*Block),
		votes:     make(map[types.Hash][]crypto.Share),
		votesSeen: make(map[types.Hash]map[types.ReplicaID]struct{}),
		genesis:   crypto.HashBytes([]byte("hotstuff/genesis")),
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
func (n *Node) Leader() types.ReplicaID { return types.LeaderOf(view, n.q.N) }

func (n *Node) isLeader() bool { return n.Leader() == n.cfg.ID }

// SetExecutor implements protocol.Replica.
func (n *Node) SetExecutor(fn protocol.ExecuteFunc) { n.execFn = fn }

// PendingRequests implements protocol.Replica.
func (n *Node) PendingRequests() int { return n.reqPool.Len() }

// SubmitSigned implements protocol.Replica. The baseline authenticates no
// clients, so sig is not checked. The payload is hashed once, into
// req.PayloadDigest, for the block digest.
func (n *Node) SubmitSigned(now time.Duration, req types.Request, sig []byte) mempool.Verdict {
	req.PayloadDigest = crypto.HashBytes(req.Payload)
	return n.reqPool.Admit(req, now)
}

// Start implements transport.Node.
func (n *Node) Start(now time.Duration, out transport.Sink) {}

// Tick implements transport.Node.
func (n *Node) Tick(now time.Duration, out transport.Sink) {
	if n.isLeader() {
		n.maybePropose(out)
	}
}

// Deliver implements transport.Node.
func (n *Node) Deliver(now time.Duration, from types.ReplicaID, msg transport.Message, out transport.Sink) {
	switch m := msg.(type) {
	case *ProposalMsg:
		n.handleProposal(from, m, out)
	case *VoteMsg:
		n.handleVote(from, m, out)
	}
}

// maybePropose extends the chain from highQC once the previous proposal is
// certified (the chained pipeline: one proposal per QC round). The QC is
// the batch clock: up to BatchSize pending requests leave at once, a
// partial batch included, as Leopard's partial blocks do.
func (n *Node) maybePropose(out transport.Sink) {
	if n.pendingQC {
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
	out.Broadcast(&ProposalMsg{Block: block, View: view, Digest: digest})
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
	if m.Block == nil || from != n.Leader() || m.View != view {
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
	n.applyQC(b.Justify)
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
	// Only a plain share counts: VerifyShare also accepts the batch form
	// (crypto.SignBatch), which Combine refuses, so one such vote in the
	// set would keep the block from ever getting its QC.
	if m.Share.Signer != from || len(m.Share.Sig) != n.suite.ShareSize() ||
		n.suite.VerifyShare(m.BlockHash, m.Share) != nil {
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
	n.applyQC(qc)
	// Pipelining: the QC ships inside the next proposal rather than as a
	// separate broadcast; propose immediately if a batch is ready.
	n.maybePropose(out)
}

// applyQC advances highQC/lock and runs the three-chain commit rule.
func (n *Node) applyQC(qc QC) {
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
		n.commitUpTo(gp)
	}
}

// commitUpTo executes the chain up to and including b, oldest first.
func (n *Node) commitUpTo(b *Block) {
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
	}
	n.execHeight = b.Height
}
