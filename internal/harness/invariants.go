package harness

import (
	"fmt"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/obs"
	"leopard/internal/protocol"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// maxViolations bounds the recorded violation list: a genuinely broken run
// can violate an invariant once per message, and the report only needs
// enough examples to diagnose it.
const maxViolations = 64

// InvariantChecker watches a simulated cluster for protocol-level safety,
// durability and agreement-vote violations. It taps three surfaces:
//
//   - executions, via each replica's Config.OnExecute hook
//     (ExecutionObserver): no two replicas may execute blocks with
//     different content at the same height, and two replicas executing the
//     same block must agree on the chain state hash it produces;
//   - messages, via simnet.SetObserver (ObserveMessage): no replica may
//     send two different proposals or two different votes for the same
//     (view, seq, round) — the equivocation the vote-ahead log exists to
//     prevent across crashes;
//   - stores, via RegisterStore + BeforeRestart/AfterRestart: a restarted
//     replica must recover at least the execution frontier its store held
//     durably at crash time.
//
// CheckCertificates additionally verifies every replica's latest stable
// checkpoint proof and that same-height checkpoints certify the same
// state. The checker is not thread-safe; the simulator is single-threaded.
type InvariantChecker struct {
	suite crypto.Suite

	execs map[types.SeqNum]map[types.Hash]*execObs // height -> full digest -> first observation
	votes map[voteKey]types.Hash

	// digest cache for the message tap: proposals for one block are
	// observed once per receiver, and the block pointer is shared across
	// those deliveries, so caching by pointer skips the rehash.
	lastBlock  *types.BFTblock
	lastDigest types.Hash

	stores   map[types.ReplicaID]storage.Store
	expected map[types.ReplicaID]types.SeqNum

	violations []string
	suppressed int

	// trace, when attached, is dumped into postMortem at the first
	// violation — the event history leading up to the failure, captured
	// before the run continues and the rings wrap past it.
	trace      *obs.TraceSet
	postMortem string
}

type execObs struct {
	content types.Hash
	chain   types.Hash
	by      types.ReplicaID
}

// voteKey identifies one replica's vote slot: round 0 is the leader's
// proposal (a vote for its own block), rounds 1 and 2 are the σ1/σ2 votes.
type voteKey struct {
	voter types.ReplicaID
	view  types.View
	seq   types.SeqNum
	round uint8
}

// NewInvariantChecker builds a checker; suite verifies checkpoint proofs
// in CheckCertificates (nil skips proof verification).
func NewInvariantChecker(suite crypto.Suite) *InvariantChecker {
	return &InvariantChecker{
		suite:    suite,
		execs:    make(map[types.SeqNum]map[types.Hash]*execObs),
		votes:    make(map[voteKey]types.Hash),
		stores:   make(map[types.ReplicaID]storage.Store),
		expected: make(map[types.ReplicaID]types.SeqNum),
	}
}

// postMortemEvents is how much per-replica event history a violation dump
// keeps: enough to see the protocol steps leading into the failure without
// flooding the report.
const postMortemEvents = 32

// AttachTrace gives the checker the cluster's trace set; on the first
// violation the last postMortemEvents events of every replica are captured
// as the post-mortem.
func (ic *InvariantChecker) AttachTrace(ts *obs.TraceSet) { ic.trace = ts }

// PostMortem returns the per-replica event dump captured at the first
// violation (empty when no violation occurred or no trace was attached).
func (ic *InvariantChecker) PostMortem() string { return ic.postMortem }

// Violate records a violation (the experiment's own checks, e.g. bounded
// liveness, report through here so one list covers the whole run).
func (ic *InvariantChecker) Violate(format string, args ...any) {
	if len(ic.violations) == 0 && ic.suppressed == 0 && ic.trace != nil {
		// First violation: freeze the event history now, while it still
		// shows the steps that led here.
		ic.postMortem = ic.trace.DumpLast(postMortemEvents)
	}
	if len(ic.violations) >= maxViolations {
		ic.suppressed++
		return
	}
	ic.violations = append(ic.violations, fmt.Sprintf(format, args...))
}

// Violations returns the recorded violations (with a trailing marker when
// the list was capped).
func (ic *InvariantChecker) Violations() []string {
	out := append([]string(nil), ic.violations...)
	if ic.suppressed > 0 {
		out = append(out, fmt.Sprintf("... and %d more suppressed", ic.suppressed))
	}
	return out
}

// contentDigest hashes only a block's linked content, not its view: after
// a view change the new leader re-proposes carried blocks re-stamped with
// the new view, so replicas may execute view-relabeled twins of the same
// block at one height. Safety is about the content agreeing.
func contentDigest(b *types.BFTblock) types.Hash {
	buf := make([]byte, 0, len(b.Content)*len(types.Hash{}))
	for _, h := range b.Content {
		buf = append(buf, h[:]...)
	}
	return crypto.HashBytes(buf)
}

// ExecutionObserver returns the Config.OnExecute hook for replica id.
func (ic *InvariantChecker) ExecutionObserver(id types.ReplicaID) func(types.SeqNum, *types.BFTblock, types.Hash) {
	return func(sn types.SeqNum, block *types.BFTblock, chain types.Hash) {
		ic.observeExecution(id, sn, block, chain)
	}
}

func (ic *InvariantChecker) observeExecution(id types.ReplicaID, sn types.SeqNum, block *types.BFTblock, chain types.Hash) {
	full := crypto.HashBFTblock(block)
	content := contentDigest(block)
	at := ic.execs[sn]
	if at == nil {
		at = make(map[types.Hash]*execObs, 1)
		ic.execs[sn] = at
	}
	if obs, ok := at[full]; ok {
		// Same block at the same height: the chain hash folds the whole
		// executed prefix, so it must match too (replay after a restart
		// re-reports the same heights and passes through here).
		if obs.chain != chain {
			ic.Violate("divergent history: replicas %d and %d executed block %x at height %d with different chain hashes",
				obs.by, id, full[:4], sn)
		}
		return
	}
	for _, obs := range at {
		if obs.content != content {
			ic.Violate("execution conflict: replicas %d and %d executed different content at height %d",
				obs.by, id, sn)
			break
		}
	}
	at[full] = &execObs{content: content, chain: chain, by: id}
}

// ObserveMessage is a simnet observer tap recording proposals and votes;
// install with Net.SetObserver(ic.ObserveMessage). A replica sending two
// different digests for one (view, seq, round) slot — across its whole
// lifetime, crashes included — is equivocating.
func (ic *InvariantChecker) ObserveMessage(now time.Duration, from, to types.ReplicaID, msg transport.Message) {
	switch m := msg.(type) {
	case *leopard.BFTblockMsg:
		if m.Block == nil {
			return
		}
		if ic.lastBlock != m.Block {
			ic.lastBlock = m.Block
			ic.lastDigest = crypto.HashBFTblock(m.Block)
		}
		ic.observeVote(from, m.Block.View, m.Block.Seq, 0, ic.lastDigest)
	case *leopard.VoteMsg:
		ic.observeVote(from, m.Block.View, m.Block.Seq, uint8(m.Round), m.Digest)
	}
}

func (ic *InvariantChecker) observeVote(voter types.ReplicaID, view types.View, seq types.SeqNum, round uint8, digest types.Hash) {
	key := voteKey{voter: voter, view: view, seq: seq, round: round}
	if prev, ok := ic.votes[key]; ok {
		if prev != digest {
			what := "vote"
			if round == 0 {
				what = "proposal"
			}
			ic.Violate("equivocation: replica %d sent two different %ss for view %d seq %d round %d",
				voter, what, view, seq, round)
		}
		return
	}
	ic.votes[key] = digest
}

// RegisterStore associates a replica's durable store with the checker so
// restarts can assert durability. A restart's Build registers its new one.
func (ic *InvariantChecker) RegisterStore(id types.ReplicaID, st storage.Store) {
	ic.stores[id] = st
}

// durableFrontier walks the store exactly as recovery does: checkpoint
// anchor, then contiguous retained records above it.
func durableFrontier(st storage.Store) types.SeqNum {
	var frontier types.SeqNum
	if cp, ok := st.Checkpoint(); ok {
		frontier = cp.Seq
	}
	for {
		if _, ok := st.Get(frontier + 1); !ok {
			return frontier
		}
		frontier++
	}
}

// BeforeRestart snapshots the durable execution frontier of replica id's
// registered store; AfterRestart asserts the recovered replica reached it.
func (ic *InvariantChecker) BeforeRestart(id types.ReplicaID) {
	st, ok := ic.stores[id]
	if !ok {
		return
	}
	ic.expected[id] = durableFrontier(st)
}

// AfterRestart checks the recovered execution frontier against the
// pre-restart durable state: recovering less means the WAL lost blocks.
func (ic *InvariantChecker) AfterRestart(id types.ReplicaID, recovered types.SeqNum) {
	want, ok := ic.expected[id]
	if !ok {
		return
	}
	delete(ic.expected, id)
	if recovered < want {
		ic.Violate("durability: replica %d recovered to height %d but its store held %d", id, recovered, want)
	}
}

// checkpointed is the read surface CheckCertificates needs; *leopard.Node
// satisfies it.
type checkpointed interface {
	LastCheckpoint() *leopard.CheckpointProofMsg
}

// CheckCertificates verifies each replica's latest stable checkpoint: the
// threshold proof must verify, and two checkpoints at the same height must
// certify the same state (they also must match any observed execution's
// chain hash at that height). Call at the end of a run. Replicas that do
// not expose checkpoints (non-Leopard protocols) are skipped.
func (ic *InvariantChecker) CheckCertificates(replicas []protocol.Replica) {
	type cpObs struct {
		state types.Hash
		by    types.ReplicaID
	}
	seen := make(map[types.SeqNum]cpObs)
	for i, rep := range replicas {
		r, ok := rep.(checkpointed)
		if !ok {
			continue
		}
		cp := r.LastCheckpoint()
		if cp == nil {
			continue
		}
		id := types.ReplicaID(i)
		if ic.suite != nil {
			if err := ic.suite.VerifyProof(leopard.CheckpointDigest(cp.Seq, cp.StateHash), cp.Proof); err != nil {
				ic.Violate("certificate: replica %d holds an invalid checkpoint proof at height %d: %v", id, cp.Seq, err)
				continue
			}
		}
		if prev, ok := seen[cp.Seq]; ok && prev.state != cp.StateHash {
			ic.Violate("certificate conflict: replicas %d and %d hold checkpoints at height %d certifying different states",
				prev.by, id, cp.Seq)
		} else if !ok {
			seen[cp.Seq] = cpObs{state: cp.StateHash, by: id}
		}
		if at := ic.execs[cp.Seq]; at != nil {
			matched := false
			for _, obs := range at {
				if obs.chain == cp.StateHash {
					matched = true
					break
				}
			}
			if !matched {
				ic.Violate("certificate: replica %d's checkpoint at height %d certifies a state no replica was observed executing",
					id, cp.Seq)
			}
		}
	}
}

var _ checkpointed = (*leopard.Node)(nil)
