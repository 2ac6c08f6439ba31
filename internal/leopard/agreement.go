package leopard

import (
	"leopard/internal/crypto"
	"leopard/internal/obs"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// maybePropose implements the pre-prepare stage (Alg. 2, leader): link up
// to τ ready datablocks into a BFTblock and multicast it with the leader's
// first-round share. Serial numbers stay within the watermark window
// (lw, lw+k]. A block of τ links leaves at once; a partial one only when
// nothing this replica proposed in the view is still unconfirmed (every
// block of a view is its leader's), so its size is whatever became ready
// during one confirmation.
func (n *Node) maybePropose(out transport.Sink) {
	for {
		if n.walFailed {
			return // fail-stop latched (possibly by a failed vote persist)
		}
		if n.nextSeq > n.lw+types.SeqNum(n.cfg.MaxParallel) {
			return // watermark window full; wait for checkpoints
		}
		if inst := n.cur.instances[n.nextSeq]; inst != nil && !inst.rounds[0].lock.IsZero() {
			// A reloaded vote-ahead lock pins this slot to content proposed
			// in a previous life that we no longer hold. Proposing anything
			// else would equivocate; the view change resolves the slot.
			return
		}
		queue := n.cur.readyQueue
		full := len(queue) >= n.cfg.BFTBlockSize
		if !full && (len(queue) == 0 || n.cur.unconfirmed()) {
			return
		}
		take := min(n.cfg.BFTBlockSize, len(queue))
		content := make([]types.Hash, take)
		copy(content, queue[:take])
		n.cur.readyQueue = queue[take:]
		block := &types.BFTblock{View: n.view, Seq: n.nextSeq, Content: content}
		n.nextSeq++
		n.stats.ProposedBlocks++
		n.stats.ProposedLinks += int64(take)
		if !full {
			n.stats.PartialBlocks++
		}
		n.propose(block, out)
	}
}

// propose starts the agreement instance for block at the leader. The
// proposal carries the leader's round-1 vote (vote), so it leaves only once
// that vote is durable; on a persist failure nothing leaves the node — the
// fail-stop has latched and the slot stays unvoted in this life.
func (n *Node) propose(block *types.BFTblock, out transport.Sink) {
	inst := n.getInstance(block.Seq)
	inst.block = block
	inst.rounds[0].digest = crypto.HashBFTblock(block)
	inst.proposedAt = n.now
	n.vote(inst, 1, out)
}

// persistVote durably appends one vote-ahead record for the current view
// and reports whether the vote may proceed. Called before the vote (or the
// proposal embedding it) is recorded or leaves the node — AppendVote
// flushes and fsyncs before returning, so the durable lock always covers
// anything a peer may have seen. On failure the fail-stop latches
// immediately and the caller must abort the vote: broadcasting without the
// durable lock would reopen the amnesia window the log exists to close.
func (n *Node) persistVote(round uint8, seq types.SeqNum, digest types.Hash) bool {
	if n.store == nil {
		return true
	}
	if err := n.store.AppendVote(storage.VoteRecord{
		View: n.view, Seq: seq, Round: round, Digest: digest,
	}); err != nil {
		n.stats.WALErrors++
		n.walFailed = true
		return false
	}
	n.stats.VotesLogged++
	return true
}

// persistNote stages the notarization certificate a round-2 vote endorses
// (block + σ1 proof) and reports whether the vote may proceed. Without it a
// σ2 voter that crash-restarts stops advertising the notarized block in its
// view-change messages, and the redo plan's quorum-intersection argument —
// every view-change quorum contains an honest σ2 voter that remembers the
// block — breaks down, letting a confirmed block be redone as a dummy. The
// frame is staged only; the round-2 persistVote that always follows flushes
// and fsyncs both records before the vote leaves the node.
func (n *Node) persistNote(inst *instance) bool {
	if n.store == nil {
		return true
	}
	if err := n.store.AppendNote(storage.NoteRecord{
		Block: inst.block, Notarized: *inst.rounds[0].cert,
	}); err != nil {
		n.stats.WALErrors++
		n.walFailed = true
		return false
	}
	n.stats.NotesLogged++
	return true
}

// getInstance returns the instance for sn, creating it if needed.
func (n *Node) getInstance(sn types.SeqNum) *instance {
	inst := n.cur.instances[sn]
	if inst == nil {
		inst = &instance{state: types.StatePending}
		n.cur.instances[sn] = inst
	}
	return inst
}

// plainShare reports whether s is a valid plain share on d. It is the only
// share check agreement, checkpointing and view change make: VerifyShare
// also accepts the batch form that replies carry (crypto.SignBatch), and a
// vote in that form would verify, count toward the 2f+1 and then fail the
// Combine it was counted for — one Byzantine voter stalling every block.
func (n *Node) plainShare(d types.Hash, s crypto.Share) bool {
	return len(s.Sig) == n.suite.ShareSize() && n.suite.VerifyShare(d, s) == nil
}

// plainShareFrom is plainShare for a share that must be the sender's own.
func (n *Node) plainShareFrom(from types.ReplicaID, d types.Hash, s crypto.Share) bool {
	return s.Signer == from && n.plainShare(d, s)
}

// tally collects plain shares toward a 2f+1 certificate: at most one per
// signer, each counted under the digest it signs, so a share on another
// digest — a checkpoint share over a state nobody else reached — takes its
// signer's place and spoils nobody's Combine. Signers are found by scanning:
// a tally holds at most n shares and every one of them cost a signature
// verification to get in.
type tally struct {
	counts []tallyCount
}

type tallyCount struct {
	digest types.Hash
	shares []crypto.Share
}

// has reports whether signer's share is already counted.
func (t *tally) has(signer types.ReplicaID) bool {
	for _, c := range t.counts {
		for _, s := range c.shares {
			if s.Signer == signer {
				return true
			}
		}
	}
	return false
}

// add counts s, a verified share on d, unless its signer is counted already,
// and returns the shares on d once there are quorum of them.
func (t *tally) add(d types.Hash, s crypto.Share, quorum int) []crypto.Share {
	i := 0
	for i < len(t.counts) && t.counts[i].digest != d {
		i++
	}
	if i == len(t.counts) {
		t.counts = append(t.counts, tallyCount{digest: d})
	}
	c := &t.counts[i]
	if !t.has(s.Signer) {
		c.shares = append(c.shares, s)
	}
	if len(c.shares) < quorum {
		return nil
	}
	return c.shares
}

// handleBFTblock implements VRFBFTBLOCK and the prepare stage (Alg. 2):
// validate the proposal, ensure every linked datablock is held (starting
// retrieval otherwise), then cast the first-round vote.
func (n *Node) handleBFTblock(from types.ReplicaID, m *BFTblockMsg, out transport.Sink) {
	if m.Block == nil {
		return
	}
	block := m.Block
	if block.View > n.view {
		// Proposal for a future view: buffer until the new-view message
		// moves us there (bounded against flooding). This must happen even
		// mid-view-change — the new-view announcement is large (it embeds
		// 2f+1 view-change messages) and the new leader's first proposals
		// routinely overtake it; dropping them would strand every redo slot,
		// because the leader proposes each slot exactly once.
		if from == types.LeaderOf(block.View, n.q.N) && len(n.futureBlocks) < 4*n.cfg.MaxParallel {
			//lint:retains-frame buffered proposal keeps its frame alive until the view advances and handleBFTblock replays it; the buffer is bounded by 4*MaxParallel
			n.futureBlocks = append(n.futureBlocks, m)
		}
		return
	}
	if n.inViewChange || block.View != n.view || from != n.Leader() {
		return
	}
	if block.Seq <= n.lw || block.Seq > n.lw+types.SeqNum(n.cfg.MaxParallel) {
		return // outside the watermark window
	}
	digest := crypto.HashBFTblock(block)
	inst := n.cur.instances[block.Seq]
	if inst != nil && !inst.rounds[0].admits(digest) {
		// The slot is locked to another digest: leader equivocation, or a
		// vote of a previous life on content the leader no longer offers.
		return
	}
	if !n.plainShare(digest, m.LeaderShare) {
		return
	}
	if expected, ok := n.cur.redo[block.Seq]; ok && expected != digest {
		return // new leader deviated from its own new-view promise
	}
	inst = n.getInstance(block.Seq)
	if inst.block == nil {
		//lint:retains-frame the accepted proposal owns its frame for the instance's lifetime; it is re-encoded (not re-sliced) for the WAL, so no aliasing escapes
		inst.block = block
		inst.rounds[0].digest = digest
		inst.proposedAt = n.now
		n.trace(obs.EvBlockProposed, uint64(block.Seq), int64(len(block.Content)))
	}
	n.checkDatablocks(inst, out)
	n.flushEarlyProofs(inst, out)
}

// checkDatablocks verifies receipt of every linked datablock (Alg. 2 line
// 39) and either casts the first-round vote or starts retrieval.
func (n *Node) checkDatablocks(inst *instance, out transport.Sink) {
	if inst.rounds[0].voted || inst.block == nil {
		return
	}
	if inst.missing == nil {
		inst.missing = make(map[types.Hash]struct{})
		for _, h := range inst.block.Content {
			if n.body(h) == nil {
				inst.missing[h] = struct{}{}
				n.noteMissing(h, inst.block.Seq)
			}
		}
	}
	if len(inst.missing) > 0 {
		return
	}
	n.vote(inst, 1, out)
}

// vote casts this replica's share in round k of inst: once in this life, not
// during a view change, and only on the digest the round's lock admits. The
// share is signed, then made durable — round 2 first stages the notarization
// it endorses (persistNote) — and only then recorded and let go: a follower
// sends it to the leader, the leader counts it, and the leader's round-1
// share leaves in its proposal. A vote the store could not persist is never
// recorded or sent (the failure latched the fail-stop).
func (n *Node) vote(inst *instance, k int, out transport.Sink) {
	r := inst.round(k)
	if r.voted || n.inViewChange || !r.admits(r.digest) {
		return
	}
	n.checkStoreHealth()
	if n.walFailed {
		return // fail-stop: cannot durably log the vote
	}
	share, err := n.suite.Sign(n.cfg.ID, r.digest)
	if err != nil {
		return
	}
	if k == 2 && !n.persistNote(inst) || !n.persistVote(uint8(k), inst.block.Seq, r.digest) {
		return
	}
	r.voted = true
	if !n.isLeader() {
		out.Send(transport.Unicast(n.Leader(), &VoteMsg{
			Block: inst.block.ID(), Round: k, Digest: r.digest, Share: share,
		}))
		return
	}
	n.count(inst, k, share, out)
	if k == 1 {
		n.trace(obs.EvBlockProposed, uint64(inst.block.Seq), int64(len(inst.block.Content)))
		out.Broadcast(&BFTblockMsg{Block: inst.block, LeaderShare: share})
	}
}

// handleVote takes a vote at the leader (notarize and confirm stages of
// Alg. 2): a plain share from its sender on the round's digest, one per
// voter, until the round has its certificate.
func (n *Node) handleVote(from types.ReplicaID, m *VoteMsg, out transport.Sink) {
	if n.inViewChange || m.Block.View != n.view || !n.isLeader() {
		return
	}
	inst := n.cur.instances[m.Block.Seq]
	if inst == nil || inst.block == nil {
		return
	}
	r := inst.round(m.Round)
	if r == nil || r.digest.IsZero() || m.Digest != r.digest || r.cert != nil || r.tally.has(from) ||
		!n.plainShareFrom(from, r.digest, m.Share) {
		return
	}
	//lint:retains-frame verified vote shares (~100B of a ~120B frame) are held until quorum aggregation; copying would double the allocation for no lifetime win
	n.count(inst, m.Round, m.Share, out)
}

// count adds a verified share to round k's tally at the leader. At 2f+1 it
// combines them into the round's certificate, records it, multicasts it and
// then acts on it.
func (n *Node) count(inst *instance, k int, share crypto.Share, out transport.Sink) {
	r := inst.round(k)
	shares := r.tally.add(r.digest, share, n.q.Quorum())
	if shares == nil {
		return
	}
	proof, err := n.suite.Combine(r.digest, shares)
	if err != nil {
		return
	}
	n.certify(inst, k, proof)
	out.Broadcast(&ProofMsg{Block: inst.block.ID(), Round: k, Digest: r.digest, Proof: proof})
	n.advance(inst, k, out)
}

// certify records round k's certificate on inst. σ1 notarizes the block:
// H(σ1) becomes what round 2 signs, and the slot learns the notarization. σ2
// also goes beside the slot's notarization while that is this instance's,
// where view-change messages ship it as NotarizedBlock.Confirmed.
func (n *Node) certify(inst *instance, k int, proof crypto.Proof) {
	inst.round(k).cert = &proof
	if k == 2 {
		if s := n.slots[inst.block.Seq]; s != nil && s.notarized.Block == inst.block {
			s.notarized.Confirmed = &proof
		}
		return
	}
	inst.rounds[1].digest = crypto.HashBytes(proof.Sig)
	if inst.state < types.StateNotarized {
		inst.state = types.StateNotarized
	}
	n.trace(obs.EvSigma1Cert, uint64(inst.block.Seq), 0)
	n.learnNotarization(NotarizedBlock{Block: inst.block, Digest: inst.rounds[0].digest, Notarized: proof})
}

// advance acts on round k's certificate: σ1 starts round 2, σ2 confirms the
// block.
func (n *Node) advance(inst *instance, k int, out transport.Sink) {
	if k == 1 {
		n.vote(inst, 2, out)
		return
	}
	n.confirmBlock(inst, out)
}

// learnNotarization keeps nb on its slot if it is the highest-view σ1
// certificate this replica has seen for the serial number, and reports
// whether it did. Everything that learns one passes through here — the
// leader's Combine, a verified ProofMsg, a note reloaded at Start — so what
// the slot holds is what buildViewChangeMsg advertises.
func (n *Node) learnNotarization(nb NotarizedBlock) bool {
	s := n.slot(nb.Block.Seq)
	if s.notarized.Block != nil && s.notarized.Block.View >= nb.Block.View {
		return false
	}
	s.notarized = nb
	return true
}

// handleProof processes notarization/confirmation proofs at replicas
// (commit and confirm stages of Alg. 2).
func (n *Node) handleProof(from types.ReplicaID, m *ProofMsg, out transport.Sink) {
	if m.Block.View != n.view {
		return // a view record holds, and flushes, proofs of its own view only
	}
	if from != n.Leader() {
		// Only the view's leader broadcasts proofs. A follower relaying
		// another valid encoding of σ1 would split the round-2 vote.
		return
	}
	inst := n.cur.instances[m.Block.Seq]
	if inst == nil || inst.block == nil {
		// Proof arrived before its block: buffer it, bounded against
		// flooding. The leader sends one proof per round, so the buffer
		// holds at most maxEarlyProofs serial numbers of two proofs.
		const maxEarlyProofs = 4096
		early := n.cur.earlyProofs[m.Block.Seq]
		if early == nil && len(n.cur.earlyProofs) >= maxEarlyProofs {
			return
		}
		for _, p := range early {
			if p.round == m.Round {
				return
			}
		}
		//lint:retains-frame a buffered proof is almost the whole frame (one threshold sig); it is held until its block arrives or the slot is released
		n.cur.earlyProofs[m.Block.Seq] = append(early, earlyProof{
			round: m.Round, digest: m.Digest, proof: m.Proof,
		})
		return
	}
	n.applyProof(inst, m.Round, m.Digest, m.Proof, out)
}

// applyProof verifies a round's proof and applies it to an instance. A
// round-2 proof waits for notarization: a replica that never saw σ1 (e.g. it
// was retrieving) can still verify σ2 once it learns H(σ1), but H(σ1) must
// come from σ1 itself.
func (n *Node) applyProof(inst *instance, k int, digest types.Hash, proof crypto.Proof, out transport.Sink) {
	r := inst.round(k)
	if r == nil || r.cert != nil || r.digest.IsZero() || digest != r.digest {
		return
	}
	if err := n.suite.VerifyProof(digest, proof); err != nil {
		return
	}
	n.certify(inst, k, proof)
	n.advance(inst, k, out)
}

// flushEarlyProofs replays proofs that arrived before the block.
func (n *Node) flushEarlyProofs(inst *instance, out transport.Sink) {
	early := n.cur.earlyProofs[inst.block.Seq]
	if len(early) == 0 {
		return
	}
	delete(n.cur.earlyProofs, inst.block.Seq)
	for _, p := range early {
		n.applyProof(inst, p.round, p.digest, p.proof, out)
	}
}

// confirmBlock moves a block to the confirmed log and advances execution.
func (n *Node) confirmBlock(inst *instance, out transport.Sink) {
	if inst.state >= types.StateConfirmed {
		return
	}
	inst.state = types.StateConfirmed
	n.lastProgress = n.now
	s := n.slot(inst.block.Seq)
	if s.block != nil {
		// Re-confirmation after a view change redo; the log entry (and
		// all counters) already reflect this block.
		return
	}
	// The certificates stay with the block: execution may happen after a
	// view change has reset the instance, and the WAL record must carry
	// them for state-transfer receivers to verify.
	s.block, s.sigma1, s.sigma2 = inst.block, *inst.rounds[0].cert, *inst.rounds[1].cert
	n.trace(obs.EvSigma2Cert, uint64(inst.block.Seq), 0)
	if inst.block.Seq > n.maxConfirmed {
		// A frontier gap below maxConfirmed starts the stuckBehind clock
		// (frontierStalled); if it persists a full retry interval, state
		// transfer takes over.
		n.maxConfirmed = inst.block.Seq
	}
	n.stats.ConfirmedBlocks++
	// Record stage timings for our own datablocks and release them; request
	// counting happens at execution, when all datablocks are guaranteed
	// present.
	for _, h := range inst.block.Content {
		n.entry(h).confirmed = true
		if packed, ok := n.myOutstanding[h]; ok {
			// Dissemination covers pack -> leader proposal (as observed
			// here via the proposal's arrival time); agreement covers
			// proposal -> confirmation.
			n.stages.Add(StageDissemination, inst.proposedAt-packed)
			n.stages.Add(StageAgreement, n.now-inst.proposedAt)
		}
	}
	n.settleOwn(inst.block.Content)
	n.tryExecute(out)
}

// settleOwn releases this replica's own datablocks among content. The
// flow-control window, the clock that holds back partial datablocks and
// hasPendingWork all read myOutstanding, so an entry left behind makes the
// generator wait forever on a datablock the cluster has finished with: it
// goes at confirmation, and again at execution (executeBlock) for blocks
// that reach this replica already decided — WAL replay, state transfer.
// Blocks an anchor jump skips are adoptCheckpoint's to release.
func (n *Node) settleOwn(content []types.Hash) {
	for _, h := range content {
		delete(n.myOutstanding, h)
	}
}

// tryExecute executes the longest consecutive confirmed prefix whose
// datablocks are all present, invoking the executor callback in order.
func (n *Node) tryExecute(out transport.Sink) {
	for {
		next := n.executedTo + 1
		block := n.confirmedBlock(next)
		if block == nil {
			return
		}
		// All linked datablocks must be held to execute. A replica that
		// confirmed via proofs without voting may still be missing some.
		datablocks := make([]*types.Datablock, 0, len(block.Content))
		for _, h := range block.Content {
			if db := n.body(h); db != nil {
				datablocks = append(datablocks, db)
			} else {
				n.noteMissing(h, block.Seq)
			}
		}
		if len(datablocks) < len(block.Content) {
			return
		}
		n.executeBlock(next, block, datablocks)
		if inst := n.cur.instances[next]; inst != nil && inst.state < types.StateExecuted {
			inst.state = types.StateExecuted
		}
		if n.store != nil {
			n.persistExecuted(next, block, datablocks)
		}
		n.maybeCheckpoint(next, out)
	}
}
