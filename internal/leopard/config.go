// Package leopard implements the Leopard BFT protocol (Hu et al., ICDCS
// 2022): a leader-based, partially synchronous protocol that preserves high
// throughput at large scales by decoupling consensus proposals into
// datablocks (request packages disseminated by every replica) and BFTblocks
// (leader proposals carrying only datablock hashes).
//
// The package contains the full normal case (Alg. 1–2), the ready round and
// committee-based datablock retrieval with erasure codes (Alg. 3), the
// checkpoint/garbage-collection protocol (Alg. 4) and the PBFT-style
// view-change (Appendix A). Nodes are event-driven state machines driven by
// a transport (internal/simnet in simulations, internal/transport/tcp in
// deployments).
//
// Batching is clocked by confirmations, not by a timer. Both batching
// levels are evaluated on Tick. A full batch leaves as soon as its window
// has room: a datablock of DatablockSize requests within
// MaxOutstandingDatablocks, a BFTblock of BFTBlockSize links within the
// watermark window. A partial datablock leaves only when none of this
// replica's own datablocks is still unconfirmed, and a partial BFTblock only
// when no block this replica proposed in the current view is. An idle
// replica therefore forwards a lone request at its next tick, and a busy
// one batches for exactly as long as its previous batch takes to come back,
// so the number of requests that share one block's signatures grows with
// load instead of being set by a constant.
//
// Agreement is one round run twice. An instance holds two values of type
// round, each with the digest it signs (H(m), then H(σ1)), the lock a
// reloaded vote set, this life's voted flag, the leader's tally and the
// certificate. Every vote goes through one function, vote: it checks the
// lock, signs, persists, and then counts the share at the leader or sends
// it (the leader's round-1 share leaves in its proposal). The leader
// combines 2f+1 shares in count, and replicas verify the certificate in
// applyProof. Only three things differ by round: round 1 waits for the
// linked datablocks, round 2 stages the notarization before its vote
// record, and σ1 starts round 2 where σ2 confirms the block (advance).
//
// What a replica holds is grouped by what ends it, and each group is let go
// in one place. Everything that dies with the view — the agreement
// instances with their vote locks, proofs that overtook their block, the
// redo promises of the new-view message, the ready collector — is one
// viewRecord, built by newViewRecord for NewNode and enterNewView alike.
// Everything that survives views and dies when both the watermark and the
// execution frontier have passed the serial number — the highest-view
// notarization, the confirmed block with its certificates, the checkpoint
// shares — is one slot in Node.slots. Everything that dies with a
// datablock — its body, confirmed mark, retrieval response and serve times
// — is one record in Node.datablocks. releaseSettled is the only function
// that drops a slot, what the view holds for the same serial number, and
// the records of the datablocks its block links, each with its (generator,
// counter) index key. What is kept per view ahead of this replica —
// timeout votes, view-change messages — is bounded per sender and released
// by enterNewView.
package leopard

import (
	"errors"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/mempool"
	"leopard/internal/obs"
	"leopard/internal/storage"
	"leopard/internal/types"
)

// ClientVerifier authenticates client request submissions at admission.
// internal/client.Verifier is the production implementation; tests may
// substitute fakes. Node.SubmitSigned calls VerifyRequest once per request.
// No replica calls VerifyRequestBatch; it stays only because
// cmd/leopard-bench wraps both methods, and must be positionally equivalent
// to calling VerifyRequest per element.
type ClientVerifier interface {
	VerifyRequest(req types.Request, sig []byte) bool
	VerifyRequestBatch(reqs []types.Request, sigs [][]byte) []bool
}

// Default protocol parameters. Batch sizes follow the paper's Table II.
const (
	DefaultDatablockSize   = 2000 // requests per datablock
	DefaultBFTBlockSize    = 100  // datablock links per BFTblock (τ)
	DefaultMaxParallel     = 100  // k: max parallel agreement instances
	DefaultOutstandingDBs  = 8    // per-replica datablock flow-control window
	DefaultRetrievalAfter  = 20 * time.Millisecond
	DefaultViewChangeAfter = 2 * time.Second
)

// Config parameterizes a Leopard replica.
type Config struct {
	// ID is this replica's identity (0..n-1).
	ID types.ReplicaID
	// Quorum holds n and f.
	Quorum types.QuorumParams
	// Suite provides the (2f+1, n)-threshold signatures.
	Suite crypto.Suite

	// DatablockSize is the number of requests packed per datablock. The
	// paper's α (bits per datablock) is DatablockSize × payload. Fewer are
	// packed only when no datablock of this replica is unconfirmed.
	DatablockSize int
	// BFTBlockSize is τ: the number of datablock links per BFTblock. Fewer
	// are proposed only when no block of this proposer is unconfirmed.
	BFTBlockSize int
	// MaxParallel is k: the watermark window of parallel agreement
	// instances (valid sn satisfies lw < sn <= lw+k).
	MaxParallel int
	// CheckpointEvery is the checkpoint period in executed blocks; the
	// paper uses k/2. Zero derives it from MaxParallel.
	CheckpointEvery int
	// MaxOutstandingDatablocks bounds how many of this replica's own
	// datablocks may be unconfirmed at once (flow control under
	// saturation). Zero means DefaultOutstandingDBs.
	MaxOutstandingDatablocks int

	// RetrievalTimeout is how long to wait for a linked-but-missing
	// datablock to arrive before multicasting a Query.
	RetrievalTimeout time.Duration
	// ViewChangeTimeout is how long confirmation progress may stall while
	// work is pending before this replica votes to change the view.
	ViewChangeTimeout time.Duration

	// Verifier, when non-nil, makes SubmitSigned check the client's
	// signature before admission and reject a bad one. Nil admits
	// unverified (synthetic workloads, protocol tests).
	Verifier ClientVerifier
	// Mempool sets the request pool's per-client token-bucket rate limit;
	// the zero value leaves it off. The pool's byte, count and per-client
	// budgets are constants of the mempool package.
	Mempool mempool.Limits

	// Store, when non-nil, makes the replica durable: every executed block
	// is appended to the write-ahead log, stable checkpoints and local
	// metadata are persisted, and Start recovers the replica's state from
	// the store (checkpoint anchor + log-tail replay) before requesting the
	// rest from peers via state transfer. Nil keeps the replica purely
	// in-memory (simulations that never crash).
	Store storage.Store
	// ViewChangeMaxTimeout caps the exponential view-change patience
	// ladder: while a view change is pending, the per-view patience before
	// escalating to the next view starts at 4×ViewChangeTimeout and doubles
	// per escalation up to this cap, resetting when a view completes. Zero
	// defaults to 16×ViewChangeTimeout.
	ViewChangeMaxTimeout time.Duration
	// Tracer, when non-nil, records this replica's lifecycle events
	// (request admitted → packed → ready → proposed → σ1 → σ2 → executed →
	// replied, plus view-change/retrieval/state-transfer spans) into the
	// obs ring buffer, stamped with the node clock. Events are emitted at
	// the same points regardless of tracing, so a traced run is
	// byte-identical to an untraced one; nil disables with a single
	// pointer check per site. A replica restarted through the same tracer
	// keeps accumulating into one history.
	Tracer *obs.Tracer
	// OnExecute, when set, is invoked after every block execution —
	// including WAL replay and state-transfer apply — with the height, the
	// executed block and the resulting chain state hash. The harness's
	// invariant checker uses it to assert cross-replica safety; unlike the
	// executor callback it also fires for dummy blocks and replayed
	// history.
	OnExecute func(sn types.SeqNum, block *types.BFTblock, chain types.Hash)
	// SkipRequestDedup disables the per-request confirmed-set bookkeeping
	// that rejects client resubmissions of already-confirmed requests.
	// Simulations with unique synthetic request streams enable this to
	// avoid billions of map operations; deployments leave it false.
	SkipRequestDedup bool

	// RotateLeaders is removed: the fixed per-view leader is the only
	// schedule. The field remains only because cmd/leopard-bench still
	// names it; Validate refuses a config that sets it.
	RotateLeaders bool

	// DisableReadyRound skips the extra voting round before linking
	// datablocks (ablation A2). Unsafe against selective attacks.
	DisableReadyRound bool
	// LeaderRetrieval answers queries only at the leader instead of the
	// erasure-coded committee (ablation A1, the paper's "intuitive
	// solution").
	LeaderRetrieval bool
}

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	if !c.Quorum.Valid() {
		return errors.New("leopard: invalid quorum parameters")
	}
	if int(c.ID) >= c.Quorum.N {
		return errors.New("leopard: replica id out of range")
	}
	if c.Suite == nil {
		return errors.New("leopard: missing crypto suite")
	}
	if c.RotateLeaders {
		return errors.New("leopard: RotateLeaders is removed; the fixed per-view leader is the only schedule")
	}
	if c.DatablockSize <= 0 {
		c.DatablockSize = DefaultDatablockSize
	}
	if c.BFTBlockSize <= 0 {
		c.BFTBlockSize = DefaultBFTBlockSize
	}
	if c.MaxParallel <= 0 {
		c.MaxParallel = DefaultMaxParallel
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = c.MaxParallel / 2
		if c.CheckpointEvery == 0 {
			c.CheckpointEvery = 1
		}
	}
	if c.MaxOutstandingDatablocks <= 0 {
		c.MaxOutstandingDatablocks = DefaultOutstandingDBs
	}
	if c.RetrievalTimeout <= 0 {
		c.RetrievalTimeout = DefaultRetrievalAfter
	}
	if c.ViewChangeTimeout <= 0 {
		c.ViewChangeTimeout = DefaultViewChangeAfter
	}
	if c.ViewChangeMaxTimeout <= 0 {
		c.ViewChangeMaxTimeout = 16 * c.ViewChangeTimeout
	}
	return nil
}
