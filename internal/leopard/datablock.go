package leopard

import (
	"leopard/internal/crypto"
	"leopard/internal/obs"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// maybePackDatablocks implements the generation loop of Alg. 1: extract
// pending requests, build a datablock, multicast it. Non-leader replicas
// only. A full datablock leaves whenever the outstanding-datablock window
// has room; a partial one only when none of this replica's own is still
// unconfirmed, so what arrives while the pipeline is busy leaves as one
// batch when it drains — the confirmation is the clock, there is no timer.
func (n *Node) maybePackDatablocks(out transport.Sink) {
	if n.inViewChange || n.isLeader() {
		return
	}
	for len(n.myOutstanding) < n.cfg.MaxOutstandingDatablocks {
		full := n.reqPool.Len() >= n.cfg.DatablockSize
		if !full && len(n.myOutstanding) > 0 {
			break
		}
		reqs, oldest := n.reqPool.Extract(n.cfg.DatablockSize)
		if len(reqs) == 0 {
			break
		}
		n.dbCounter++
		n.reserveCounter()
		db := &types.Datablock{
			Ref:      types.DatablockRef{Generator: n.cfg.ID, Counter: n.dbCounter},
			Requests: reqs,
		}
		digest := crypto.HashDatablock(db)
		n.dbPool.Add(digest, db)
		n.myOutstanding[digest] = n.now
		n.stats.DatablocksMade++
		n.stats.DatablockRequests += int64(len(reqs))
		if !full {
			n.stats.PartialDatablocks++
		}
		n.stages.Add(StageGeneration, n.now-oldest)
		n.trace(obs.EvDatablockPacked, traceID(digest), int64(len(reqs)))
		out.Broadcast(&DatablockMsg{Block: db, Digest: digest})
		// The generator holds its own datablock; announce readiness.
		n.sendReady(digest, out)
	}
}

// sendReady routes a ready announcement for digest to the leader, which
// collects the ready votes, applying it locally when that is this replica.
func (n *Node) sendReady(digest types.Hash, out transport.Sink) {
	if n.isLeader() {
		n.recordReady(digest, n.cfg.ID)
		return
	}
	out.Send(transport.Unicast(n.Leader(), &ReadyMsg{Digest: digest}))
}

// handleDatablock implements datablock verification (Alg. 1, lines 11-16):
// accept unless a datablock with the same counter from the same generator
// was already received, then announce readiness to the leader.
func (n *Node) handleDatablock(from types.ReplicaID, m *DatablockMsg, out transport.Sink) {
	if m.Block == nil || m.Block.Ref.Generator != from {
		// Replicas may only disseminate their own datablocks; channel
		// authentication makes the generator field trustworthy.
		return
	}
	digest := m.Digest
	if digest.IsZero() { // decoded off the wire: Digest never travels
		digest = crypto.HashDatablock(m.Block)
	}
	n.acceptDatablock(digest, m.Block, from, out)
}

// acceptDatablock admits a datablock into the pool (from dissemination or
// retrieval), announces readiness, and unblocks anything waiting on it.
func (n *Node) acceptDatablock(digest types.Hash, db *types.Datablock, from types.ReplicaID, out transport.Sink) {
	if !n.dbPool.Add(digest, db) {
		return // duplicate digest or duplicate (generator, counter)
	}
	if n.isLeader() {
		// The leader counts itself and the generator as holders.
		n.recordReady(digest, n.cfg.ID)
		n.recordReady(digest, db.Ref.Generator)
	} else {
		n.sendReady(digest, out)
	}
	n.resolveMissing(digest, out)
}

// handleReady collects ready votes at the leader (Alg. 3, Ready step). A
// datablock moves to the ready queue once 2f+1 distinct replicas hold it,
// guaranteeing f+1 honest holders for the retrieval committee.
func (n *Node) handleReady(from types.ReplicaID, m *ReadyMsg, out transport.Sink) {
	if !n.isLeader() {
		return
	}
	n.recordReady(m.Digest, from)
}

// recordReady adds one holder vote and enqueues the datablock for linking
// when the quorum is met (or immediately under the A2 ablation).
func (n *Node) recordReady(digest types.Hash, from types.ReplicaID) {
	if _, done := n.cur.readySet[digest]; done {
		return
	}
	votes := n.cur.readyVotes[digest]
	if votes == nil {
		votes = make(map[types.ReplicaID]struct{}, n.q.Quorum())
		n.cur.readyVotes[digest] = votes
	}
	held := n.dbPool.Has(digest)
	if _, dup := votes[from]; !dup {
		votes[from] = struct{}{}
		if !held {
			n.cur.readyOrder[from] = append(n.cur.readyOrder[from], digest)
			n.shedReadyVote(from)
		}
	}
	if !held {
		return
	}
	if from == n.cfg.ID {
		// The collector votes when it pools the body: from here on the
		// entry is paid for by that body, and no vote on it is shed.
		for voter := range votes {
			n.cur.readyOrder[voter] = removeDigest(n.cur.readyOrder[voter], digest)
		}
	}
	if len(votes) >= n.q.Quorum() || n.cfg.DisableReadyRound {
		n.cur.readySet[digest] = struct{}{}
		n.cur.readyQueue = append(n.cur.readyQueue, digest)
		delete(n.cur.readyVotes, digest)
		// The ready quorum is observed at the digest's vote collector only —
		// the earliest such event per digest closes the dissemination stage.
		n.trace(obs.EvDatablockReady, traceID(digest), 0)
	}
}

// shedReadyVote keeps readyVotes bounded. Only a vote on a digest whose body
// has not reached this collector is ever withdrawn: a voter may hold
// 4 × N × MaxOutstandingDatablocks of those (readyOrder lists them, oldest
// first), and past that its oldest one goes, and the digest with it if that
// was its only vote. Honest generators stop at MaxOutstandingDatablocks
// unlinked datablocks each, so that many times N is all an honest voter has
// to announce ahead of the bodies; what it sheds, in a long run, are its late
// announcements of datablocks already pruned here. A voter that floods
// announcements loses its own old votes and nobody else's. Entries whose body
// is pooled — every one the collector or the generator is counted on — are
// bounded by the pool and never touched, so a generator that floods the
// collector with datablocks takes nobody's vote either.
//
// Not covered: a Byzantine generator that sends an honest voter, and not this
// collector, more than the budget of datablocks while an honest datablock
// that voter announced is still on the bulk lane to here pushes that one vote
// out. Telling the two apart needs the generator in ReadyMsg (ROADMAP).
func (n *Node) shedReadyVote(from types.ReplicaID) {
	order := n.cur.readyOrder[from]
	if len(order) <= 4*n.q.N*n.cfg.MaxOutstandingDatablocks {
		return
	}
	oldest := order[0]
	n.cur.readyOrder[from] = order[1:]
	votes := n.cur.readyVotes[oldest]
	delete(votes, from)
	if len(votes) == 0 {
		delete(n.cur.readyVotes, oldest)
	}
}

// removeDigest returns order without digest. Bodies arrive roughly in
// announcement order, so the match is at or near the front.
func removeDigest(order []types.Hash, digest types.Hash) []types.Hash {
	for i, d := range order {
		if d == digest {
			if i == 0 {
				return order[1:]
			}
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}
