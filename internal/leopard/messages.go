package leopard

import (
	"leopard/internal/codec"
	"leopard/internal/crypto"
	"leopard/internal/merkle"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// wireMessage is everything a type needs to travel between replicas. Each
// message below supplies all of it next to its struct, and the kind table
// (wire.go) constructs every message through this interface, so a message
// that lacks a kind, a walk, a size, a class or a handler does not compile.
type wireMessage interface {
	// WireSize and Class are the simulator's size model — hdrSize plus the
	// walk's byte count — and the accounting class (transport.Message).
	transport.Message
	// kind is the frame's first byte and the message's index in the kind
	// table.
	kind() uint8
	// wire is the message's layout after the kind byte: the one field walk
	// EncodeMessage and DecodeMessage both run.
	wire(c codec.Coder)
	// deliver hands the message to its handler; Node.Deliver dispatches
	// through it.
	deliver(n *Node, from types.ReplicaID, out transport.Sink)
}

// hdrSize is the one modelled term of a message's WireSize, which adds it
// to the byte count of the message's walk (codec.Size). It stands for the
// kind byte and the length framing: a real control frame spends 6 bytes on
// length, frame kind and message kind, and a bulk message a 25-byte stream
// header per chunk.
const hdrSize = 8

// Sub-layouts several messages share, each described once.

func wireShare(c codec.Coder, s *crypto.Share) {
	codec.U32(c, &s.Signer)
	c.Bytes(&s.Sig)
}

func wireProof(c codec.Coder, p *crypto.Proof) { c.Bytes(&p.Sig) }

func wireBlockID(c codec.Coder, id *types.BlockID) {
	codec.U64(c, &id.View)
	codec.U64(c, &id.Seq)
}

func wireMerkleProof(c codec.Coder, p *merkle.Proof) {
	codec.U32(c, &p.Index)
	// A 2^64-leaf tree is impossible.
	codec.Slice(c, &p.Steps, 64, func(c codec.Coder, s *merkle.ProofStep) {
		c.Hash(&s.Hash)
		c.Bool(&s.Right)
	})
}

// wireCheckpointCert is the optional stable-checkpoint certificate that
// view-change and state-transfer messages carry.
func wireCheckpointCert(c codec.Coder, p **CheckpointProofMsg) {
	codec.Opt(c, p, func(c codec.Coder, cp *CheckpointProofMsg) { cp.wire(c) })
}

// DatablockMsg carries a datablock from its generator to all replicas
// (Alg. 1, line 7). Digest caches H(Block) and is never encoded, so every
// decoded message has a zero Digest. A receiver hashes the block when
// Digest is zero and uses it otherwise: over TCP, or simnet in codec mode,
// every block is hashed; an in-process simulation keeps the sender's.
//
// A decoded DatablockMsg keeps the frame its block borrows from (frame,
// never encoded); the receiver's datablock record takes it over with the
// body and returns it to the transport frame pool on release.
type DatablockMsg struct {
	Block  *types.Datablock
	Digest types.Hash
	frame  []byte
}

func (m *DatablockMsg) kind() uint8 { return kindDatablock }

// wire carries the block only: Digest is a local cache and never travels.
func (m *DatablockMsg) wire(c codec.Coder) { c.Datablock(&m.Block) }

// WireSize, Class and Policy implement transport.Message.
func (m *DatablockMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *DatablockMsg) Class() transport.Class   { return transport.ClassDatablock }
func (m *DatablockMsg) Policy() transport.Policy { return transport.PolicyBulk }

func (m *DatablockMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleDatablock(from, m, out)
}

// ReadyMsg tells the leader that the sender holds the datablock with the
// given digest (Alg. 3, Ready step). Channel authentication suffices; no
// transferable signature is needed because only the leader consumes it.
type ReadyMsg struct {
	Digest types.Hash
}

func (m *ReadyMsg) kind() uint8 { return kindReady }

func (m *ReadyMsg) wire(c codec.Coder) { c.Hash(&m.Digest) }

// WireSize, Class and Policy implement transport.Message.
func (m *ReadyMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *ReadyMsg) Class() transport.Class   { return transport.ClassVote }
func (m *ReadyMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *ReadyMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleReady(from, m, out)
}

// BFTblockMsg is the leader's consensus proposal with its own first-round
// share (Alg. 2, pre-prepare).
type BFTblockMsg struct {
	Block       *types.BFTblock
	LeaderShare crypto.Share
}

func (m *BFTblockMsg) kind() uint8 { return kindBFTblock }

func (m *BFTblockMsg) wire(c codec.Coder) {
	c.BFTblock(&m.Block)
	wireShare(c, &m.LeaderShare)
}

// WireSize, Class and Policy implement transport.Message.
func (m *BFTblockMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *BFTblockMsg) Class() transport.Class   { return transport.ClassBFTblock }
func (m *BFTblockMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *BFTblockMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleBFTblock(from, m, out)
}

// VoteMsg is a threshold-signature share sent to the leader. Round 1 votes
// sign H(block); round 2 votes sign H(σ1).
type VoteMsg struct {
	Block  types.BlockID
	Round  int // 1 or 2
	Digest types.Hash
	Share  crypto.Share
}

func (m *VoteMsg) kind() uint8 { return kindVote }

func (m *VoteMsg) wire(c codec.Coder) {
	wireBlockID(c, &m.Block)
	codec.U8(c, &m.Round)
	c.Hash(&m.Digest)
	wireShare(c, &m.Share)
}

// WireSize, Class and Policy implement transport.Message.
func (m *VoteMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *VoteMsg) Class() transport.Class   { return transport.ClassVote }
func (m *VoteMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *VoteMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleVote(from, m, out)
}

// ProofMsg carries a combined proof from the leader: round 1 notarizes,
// round 2 confirms.
type ProofMsg struct {
	Block  types.BlockID
	Round  int
	Digest types.Hash
	Proof  crypto.Proof
}

func (m *ProofMsg) kind() uint8 { return kindProof }

func (m *ProofMsg) wire(c codec.Coder) {
	wireBlockID(c, &m.Block)
	codec.U8(c, &m.Round)
	c.Hash(&m.Digest)
	wireProof(c, &m.Proof)
}

// WireSize, Class and Policy implement transport.Message.
func (m *ProofMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *ProofMsg) Class() transport.Class   { return transport.ClassProof }
func (m *ProofMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *ProofMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleProof(from, m, out)
}

// QueryMsg asks the committee for missing datablocks (Alg. 3, Query step).
type QueryMsg struct {
	Digests []types.Hash
}

func (m *QueryMsg) kind() uint8 { return kindQuery }

func (m *QueryMsg) wire(c codec.Coder) {
	codec.Slice(c, &m.Digests, codec.MaxElements, codec.Coder.Hash)
}

// WireSize, Class and Policy implement transport.Message. Queued behind
// the holder's datablock backlog, a query would arrive after the block was
// released.
func (m *QueryMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *QueryMsg) Class() transport.Class   { return transport.ClassRetrieval }
func (m *QueryMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *QueryMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleQuery(from, m, out)
}

// RespMsg answers a query with one erasure chunk plus a Merkle inclusion
// proof (Alg. 3, Response step).
type RespMsg struct {
	Digest  types.Hash // digest of the requested datablock
	Root    types.Hash // Merkle root over all chunks
	Chunk   []byte
	Index   int
	Proof   merkle.Proof
	DataLen int // original encoded length, needed to decode
}

func (m *RespMsg) kind() uint8 { return kindResp }

func (m *RespMsg) wire(c codec.Coder) {
	c.Hash(&m.Digest)
	c.Hash(&m.Root)
	c.Bytes(&m.Chunk)
	codec.U32(c, &m.Index)
	codec.U32(c, &m.DataLen)
	wireMerkleProof(c, &m.Proof)
}

// WireSize, Class and Policy implement transport.Message.
func (m *RespMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *RespMsg) Class() transport.Class   { return transport.ClassRetrieval }
func (m *RespMsg) Policy() transport.Policy { return transport.PolicyBulk }

func (m *RespMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleResp(from, m, out)
}

// FullBlockMsg is the ablation-A1 leader response: the whole datablock.
type FullBlockMsg struct {
	Digest types.Hash
	Block  *types.Datablock
}

func (m *FullBlockMsg) kind() uint8 { return kindFullBlock }

func (m *FullBlockMsg) wire(c codec.Coder) {
	c.Hash(&m.Digest)
	c.Datablock(&m.Block)
}

// WireSize, Class and Policy implement transport.Message.
func (m *FullBlockMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *FullBlockMsg) Class() transport.Class   { return transport.ClassRetrieval }
func (m *FullBlockMsg) Policy() transport.Policy { return transport.PolicyBulk }

func (m *FullBlockMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleFullBlock(from, m, out)
}

// CheckpointMsg is a replica's checkpoint share (Alg. 4).
type CheckpointMsg struct {
	Seq       types.SeqNum
	StateHash types.Hash
	Share     crypto.Share
}

func (m *CheckpointMsg) kind() uint8 { return kindCheckpoint }

func (m *CheckpointMsg) wire(c codec.Coder) {
	codec.U64(c, &m.Seq)
	c.Hash(&m.StateHash)
	wireShare(c, &m.Share)
}

// WireSize, Class and Policy implement transport.Message.
func (m *CheckpointMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *CheckpointMsg) Class() transport.Class   { return transport.ClassCheckpoint }
func (m *CheckpointMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *CheckpointMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleCheckpoint(from, m, out)
}

// CheckpointProofMsg is the leader's combined checkpoint certificate.
type CheckpointProofMsg struct {
	Seq       types.SeqNum
	StateHash types.Hash
	Proof     crypto.Proof
}

func (m *CheckpointProofMsg) kind() uint8 { return kindCheckpointProof }

func (m *CheckpointProofMsg) wire(c codec.Coder) {
	codec.U64(c, &m.Seq)
	c.Hash(&m.StateHash)
	wireProof(c, &m.Proof)
}

// WireSize, Class and Policy implement transport.Message.
func (m *CheckpointProofMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *CheckpointProofMsg) Class() transport.Class   { return transport.ClassCheckpoint }
func (m *CheckpointProofMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *CheckpointProofMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleCheckpointProof(from, m, out)
}

// TimeoutMsg votes to leave view View (view-change trigger).
type TimeoutMsg struct {
	View  types.View
	Share crypto.Share // share over the timeout digest, binds the view
}

func (m *TimeoutMsg) kind() uint8 { return kindTimeout }

func (m *TimeoutMsg) wire(c codec.Coder) {
	codec.U64(c, &m.View)
	wireShare(c, &m.Share)
}

// WireSize, Class and Policy implement transport.Message.
func (m *TimeoutMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *TimeoutMsg) Class() transport.Class   { return transport.ClassViewChange }
func (m *TimeoutMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *TimeoutMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleTimeout(from, m, out)
}

// NotarizedBlock is a block header carried by view-change messages together
// with its notarization proof.
type NotarizedBlock struct {
	Block     *types.BFTblock
	Digest    types.Hash
	Notarized crypto.Proof
	Confirmed *crypto.Proof // non-nil if the sender saw a confirmation
}

func wireNotarizedBlock(c codec.Coder, nb *NotarizedBlock) {
	c.BFTblock(&nb.Block)
	c.Hash(&nb.Digest)
	wireProof(c, &nb.Notarized)
	codec.Opt(c, &nb.Confirmed, wireProof)
}

// ViewChangeMsg is sent to the next leader: <view-change, v+1, lc, B>.
type ViewChangeMsg struct {
	NewView    types.View
	Checkpoint *CheckpointProofMsg // lc: latest stable checkpoint, may be nil
	Blocks     []NotarizedBlock    // notarized/confirmed blocks above lw
	Sender     types.ReplicaID
	Share      crypto.Share // signature over the message digest
}

func (m *ViewChangeMsg) kind() uint8 { return kindViewChange }

func (m *ViewChangeMsg) wire(c codec.Coder) {
	codec.U64(c, &m.NewView)
	codec.U32(c, &m.Sender)
	wireCheckpointCert(c, &m.Checkpoint)
	codec.Slice(c, &m.Blocks, codec.MaxElements, wireNotarizedBlock)
	wireShare(c, &m.Share)
}

// WireSize, Class and Policy implement transport.Message. The message
// carries every outstanding notarized block header, so it is charged, and
// it is the recovery path's critical traffic, so it rides the control lane.
func (m *ViewChangeMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *ViewChangeMsg) Class() transport.Class   { return transport.ClassViewChange }
func (m *ViewChangeMsg) Policy() transport.Policy { return transport.PolicyControlCharged }

func (m *ViewChangeMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleViewChange(from, m, out)
}

// StateReqMsg asks a peer for checkpoint-anchored state transfer: the
// sender has executed up to Have and wants the newest stable checkpoint
// plus the executed range above it. Sent by a replica that restarted from
// its durable log (or that observes the cluster watermark ahead of its own
// execution) to a rotating set of f+1 peers, so at least one recipient is
// honest; every response is independently verifiable, so one honest
// responder suffices.
type StateReqMsg struct {
	Have types.SeqNum
}

func (m *StateReqMsg) kind() uint8 { return kindStateReq }

func (m *StateReqMsg) wire(c codec.Coder) { codec.U64(c, &m.Have) }

// WireSize, Class and Policy implement transport.Message.
func (m *StateReqMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *StateReqMsg) Class() transport.Class   { return transport.ClassState }
func (m *StateReqMsg) Policy() transport.Policy { return transport.PolicyControl }

func (m *StateReqMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleStateReq(from, m, out)
}

// MaxStateBlocks bounds the executed-block records one StateRespMsg may
// carry. A recovering replica pages through the range by re-requesting with
// its advanced Have — each advance is a fresh serve-cooldown key at the
// responder, so progressive catch-up is never throttled while a stuck
// requester repeating one height is.
const MaxStateBlocks = 8

// StateRespMsg answers a StateReqMsg from the responder's durable log: the
// newest stable checkpoint certificate (the recovery anchor, may be nil
// when the responder has none) and up to MaxStateBlocks executed-block
// records continuing the requester's log. Each record is self-certifying —
// it carries the block's notarization and confirmation proofs, and the
// datablocks hash-check against the block's content — so a Byzantine
// responder cannot fabricate history.
type StateRespMsg struct {
	Checkpoint *CheckpointProofMsg
	Blocks     []*storage.BlockRecord
}

func (m *StateRespMsg) kind() uint8 { return kindStateResp }

func (m *StateRespMsg) wire(c codec.Coder) {
	wireCheckpointCert(c, &m.Checkpoint)
	codec.Slice(c, &m.Blocks, MaxStateBlocks, func(c codec.Coder, rec **storage.BlockRecord) {
		if c.Decoding() {
			*rec = new(storage.BlockRecord)
		}
		(*rec).Wire(c)
	})
}

// WireSize, Class and Policy implement transport.Message: full datablocks
// ride bulk.
func (m *StateRespMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *StateRespMsg) Class() transport.Class   { return transport.ClassState }
func (m *StateRespMsg) Policy() transport.Policy { return transport.PolicyBulk }

func (m *StateRespMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleStateResp(from, m, out)
}

// RequestMsg is a signed client request submission. Clients send it to a
// replica's client port, which hands it to Node.SubmitSigned; there Sig is
// checked against the client's public key (client.RequestDigest) before the
// request enters the mempool. Carries raw payload bytes, so it rides the
// bulk lane.
type RequestMsg struct {
	Req types.Request
	Sig []byte
}

func (m *RequestMsg) kind() uint8 { return kindRequest }

func (m *RequestMsg) wire(c codec.Coder) {
	c.Request(&m.Req)
	c.Bytes(&m.Sig)
}

// WireSize, Class and Policy implement transport.Message.
func (m *RequestMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *RequestMsg) Class() transport.Class   { return transport.ClassRequest }
func (m *RequestMsg) Policy() transport.Policy { return transport.PolicyBulk }

// deliver ignores a RequestMsg from a peer: requests enter only behind the
// client port, so a Byzantine replica cannot make an honest one spend
// signature checks on forwarded floods.
func (m *RequestMsg) deliver(*Node, types.ReplicaID, transport.Sink) {}

// ReplyMsg is an executing replica's signed reply to a client: the request
// identity, the serial number it executed at, the replica's execution chain
// result, and the replica's signature share over client.ReplyDigest — a
// batch share (crypto.SignBatch) out of the one signature the replica made
// for the executed block, which Suite.VerifyShare checks like any other. A
// client accepts once f+1 replicas report matching (SN, Result) — at least
// one is honest, so the result is the committed one. Replies are small and
// latency-sensitive: they travel the control lane.
type ReplyMsg struct {
	Client uint64
	Seq    uint64
	SN     types.SeqNum
	Result types.Hash
	Share  crypto.Share
}

func (m *ReplyMsg) kind() uint8 { return kindReply }

func (m *ReplyMsg) wire(c codec.Coder) {
	codec.U64(c, &m.Client)
	codec.U64(c, &m.Seq)
	codec.U64(c, &m.SN)
	c.Hash(&m.Result)
	wireShare(c, &m.Share)
}

// WireSize, Class and Policy implement transport.Message.
func (m *ReplyMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *ReplyMsg) Class() transport.Class   { return transport.ClassAck }
func (m *ReplyMsg) Policy() transport.Policy { return transport.PolicyControl }

// deliver does nothing: replies travel replica to client, and a replica that
// is sent one ignores it.
func (m *ReplyMsg) deliver(*Node, types.ReplicaID, transport.Sink) {}

// NewViewMsg is broadcast by the new leader: <new-view, v+1, V>.
type NewViewMsg struct {
	NewView types.View
	Proofs  []ViewChangeMsg // V: 2f+1 view-change messages
	Share   crypto.Share
}

func (m *NewViewMsg) kind() uint8 { return kindNewView }

func (m *NewViewMsg) wire(c codec.Coder) {
	codec.U64(c, &m.NewView)
	codec.Slice(c, &m.Proofs, codec.MaxElements, func(c codec.Coder, vc *ViewChangeMsg) { vc.wire(c) })
	wireShare(c, &m.Share)
}

// WireSize, Class and Policy implement transport.Message, as for ViewChangeMsg.
func (m *NewViewMsg) WireSize() int            { return hdrSize + codec.Size(m.wire) }
func (m *NewViewMsg) Class() transport.Class   { return transport.ClassViewChange }
func (m *NewViewMsg) Policy() transport.Policy { return transport.PolicyControlCharged }

func (m *NewViewMsg) deliver(n *Node, from types.ReplicaID, out transport.Sink) {
	n.handleNewView(from, m, out)
}
