package leopard

import (
	"encoding/binary"

	"leopard/internal/crypto"
	"leopard/internal/obs"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// CheckpointDigest derives the digest replicas threshold-sign for a
// checkpoint: H("checkpoint" || sn || stateHash).
func CheckpointDigest(sn types.SeqNum, state types.Hash) types.Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(sn))
	return crypto.HashConcat([]byte("leopard/checkpoint"), buf[:], state[:])
}

// maybeCheckpoint emits this replica's checkpoint share after executing a
// block at a multiple of the checkpoint interval (Alg. 4). The state hash
// is the running execution chain hash, identical at every honest replica
// that executed the same prefix.
func (n *Node) maybeCheckpoint(sn types.SeqNum, out transport.Sink) {
	if uint64(sn)%uint64(n.cfg.CheckpointEvery) != 0 {
		return
	}
	st := n.execState
	digest := CheckpointDigest(sn, st)
	share, err := n.suite.Sign(n.cfg.ID, digest)
	if err != nil {
		return
	}
	msg := &CheckpointMsg{Seq: sn, StateHash: st, Share: share}
	if n.isLeader() {
		n.collectCheckpoint(n.cfg.ID, msg, out)
		return
	}
	out.Send(transport.Unicast(n.Leader(), msg))
}

// handleCheckpoint collects checkpoint shares at the leader.
func (n *Node) handleCheckpoint(from types.ReplicaID, m *CheckpointMsg, out transport.Sink) {
	if !n.isLeader() {
		return
	}
	n.collectCheckpoint(from, m, out)
}

func (n *Node) collectCheckpoint(from types.ReplicaID, m *CheckpointMsg, out transport.Sink) {
	if m.Seq <= n.lw {
		return // already garbage-collected
	}
	if m.Seq > n.lw+types.SeqNum(n.cfg.MaxParallel) {
		// No honest replica can execute beyond the watermark window, so no
		// honest share exists for this seq. Without the bound, f Byzantine
		// replicas could seed slots at arbitrary far-future seqs that
		// releaseSettled never reaches — an unbounded table on a
		// long-running leader (regression: TestCheckpointMapsPruned).
		return
	}
	// One share per sender and seq, whatever state it names, and only the
	// shares on the state that 2f+1 replicas reached are combined: a
	// Byzantine share over another state can neither fail that Combine nor
	// buy its sender a second entry.
	if s := n.slots[m.Seq]; s != nil && s.checkpoint.has(from) {
		return
	}
	digest := CheckpointDigest(m.Seq, m.StateHash)
	if !n.plainShareFrom(from, digest, m.Share) {
		return
	}
	shares := n.slot(m.Seq).checkpoint.add(digest, m.Share, n.q.Quorum())
	if shares == nil {
		return
	}
	proof, err := n.suite.Combine(digest, shares)
	if err != nil {
		return
	}
	cp := &CheckpointProofMsg{Seq: m.Seq, StateHash: m.StateHash, Proof: proof}
	out.Broadcast(cp)
	n.applyCheckpoint(cp)
}

// handleCheckpointProof verifies and applies a stable checkpoint.
func (n *Node) handleCheckpointProof(from types.ReplicaID, m *CheckpointProofMsg, out transport.Sink) {
	if m.Seq <= n.lw {
		return
	}
	digest := CheckpointDigest(m.Seq, m.StateHash)
	if err := n.suite.VerifyProof(digest, m.Proof); err != nil {
		return
	}
	n.applyCheckpoint(m)
}

// applyCheckpoint advances the low watermark to the checkpoint and lets go
// of what it settles.
func (n *Node) applyCheckpoint(cp *CheckpointProofMsg) {
	if cp.Seq <= n.lw {
		return
	}
	n.lastCheckpoint = cp
	n.trace(obs.EvCheckpointStable, uint64(cp.Seq), 0)
	if n.store != nil {
		// Durable order matters: the anchor must hit disk before the log
		// below it becomes eligible for truncation, or a crash in between
		// could lose the range. SaveCheckpoint is write-through (fsync +
		// atomic rename); it is also what lets a restarting replica resume
		// from this checkpoint even when it never executed up to it.
		if err := n.store.SaveCheckpoint(storage.Checkpoint{Seq: cp.Seq, StateHash: cp.StateHash, Proof: cp.Proof}); err != nil {
			n.stats.WALErrors++
		} else if err := n.store.TruncateBelow(cp.Seq); err != nil {
			n.stats.WALErrors++
		}
	}
	// The watermark always advances: a quorum has executed past cp.Seq, so
	// nothing at or below it will be proposed again. What releaseSettled
	// lets go is limited to this replica's own executed prefix, so a lagging
	// replica keeps what it still needs to catch up.
	n.lw = cp.Seq
	n.releaseSettled()
	// The state-transfer serve map is already bounded (one entry per
	// requester); dropping lapsed entries is just hygiene.
	for id, s := range n.stateServed {
		if n.now-s.at >= n.serveCooldown() {
			delete(n.stateServed, id)
		}
	}
}

// releaseSettled is the one place a serial number's state is let go: its
// slot (notarization, confirmed block and certificates, checkpoint shares),
// what the current view holds for it (instance and vote locks, early proofs,
// redo promise) and the records of the datablocks its block links (body,
// confirmed mark, retrieval response, serve times), for every serial number
// that is both executed and at or below the watermark — certified by the
// stable checkpoint, and of no further use here. It resumes from a cursor
// (prunedTo) rather than the previous watermark: a lagging replica keeps a
// range until it executes it (or jumps past it via a checkpoint anchor),
// and the cursor is what guarantees the range is swept when execution
// eventually passes it instead of leaking for the node's lifetime.
func (n *Node) releaseSettled() {
	limit := min(n.lw, n.executedTo)
	for sn := n.prunedTo + 1; sn <= limit; sn++ {
		// The executed block at sn is the slot's; fall back to the agreement
		// instance for a block an anchor jump skipped unconfirmed. (Blocks
		// installed by WAL replay or state transfer have no instance, so the
		// slot is what lets their datablocks go here.)
		blk := n.confirmedBlock(sn)
		if inst := n.cur.instances[sn]; blk == nil && inst != nil {
			blk = inst.block
		}
		if blk != nil {
			for _, h := range blk.Content {
				n.releaseDatablock(h)
				delete(n.cur.readySet, h)
			}
		}
		if inst := n.cur.instances[sn]; inst != nil {
			n.dropWaits(sn, inst)
		}
		delete(n.slots, sn)
		delete(n.cur.instances, sn)
		delete(n.cur.earlyProofs, sn)
		delete(n.cur.redo, sn)
	}
	n.prunedTo = max(n.prunedTo, limit)
}
