package leopard

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"sort"

	"leopard/internal/crypto"
	"leopard/internal/obs"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// timeoutDigest is what replicas sign to vote for leaving view v.
func timeoutDigest(v types.View) types.Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return crypto.HashConcat([]byte("leopard/timeout"), buf[:])
}

// viewChangeDigest binds a view-change message's contents for signing.
func viewChangeDigest(m *ViewChangeMsg) types.Hash {
	var buf []byte
	var tmp [8]byte
	buf = append(buf, []byte("leopard/viewchange")...)
	binary.BigEndian.PutUint64(tmp[:], uint64(m.NewView))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(m.Sender))
	buf = append(buf, tmp[:4]...)
	if m.Checkpoint != nil {
		binary.BigEndian.PutUint64(tmp[:], uint64(m.Checkpoint.Seq))
		buf = append(buf, tmp[:]...)
		buf = append(buf, m.Checkpoint.StateHash[:]...)
	}
	for i := range m.Blocks {
		buf = append(buf, m.Blocks[i].Digest[:]...)
	}
	return crypto.HashBytes(buf)
}

// newViewDigest binds a new-view message for the leader's signature.
func newViewDigest(m *NewViewMsg) types.Hash {
	var buf []byte
	var tmp [8]byte
	buf = append(buf, []byte("leopard/newview")...)
	binary.BigEndian.PutUint64(tmp[:], uint64(m.NewView))
	buf = append(buf, tmp[:]...)
	for i := range m.Proofs {
		d := viewChangeDigest(&m.Proofs[i])
		buf = append(buf, d[:]...)
	}
	return crypto.HashBytes(buf)
}

// hasPendingWork reports whether there is anything to make progress on; an
// idle system must not trigger view changes.
func (n *Node) hasPendingWork() bool {
	return n.reqPool.Len() > 0 || len(n.myOutstanding) > 0 || len(n.cur.readyQueue) > 0 || n.cur.unconfirmed()
}

// checkViewChangeTimer implements the view-change trigger: if confirmation
// progress stalls while work is pending, vote to leave the current view;
// if an in-flight view change itself stalls, escalate to the next view.
// Escalation patience is exponential: each failed target view doubles the
// wait (capped at ViewChangeMaxTimeout), so during a long partition the
// cluster does not burn a view per fixed interval and the backlog of
// pending views stays small when the network heals.
func (n *Node) checkViewChangeTimer(out transport.Sink) {
	if n.InViewChange() {
		if n.vcPatience <= 0 {
			n.vcPatience = 4 * n.cfg.ViewChangeTimeout
		}
		if n.now-n.vcStartedAt >= n.vcPatience {
			target := n.pendingView // leave the failed target view too
			n.voteTimeout(target, out)
		}
		return
	}
	if !n.hasPendingWork() {
		n.lastProgress = n.now
		return
	}
	if n.now-n.lastProgress >= n.cfg.ViewChangeTimeout {
		n.voteTimeout(n.view, out)
	}
}

// voteTimeout broadcasts this replica's timeout vote for view v (once) and
// enters the view change for v+1.
func (n *Node) voteTimeout(v types.View, out transport.Sink) {
	if n.votedTimeout(v) || v < n.view {
		return
	}
	share, err := n.suite.Sign(n.cfg.ID, timeoutDigest(v))
	if err != nil {
		return
	}
	n.recordTimeout(v, n.cfg.ID)
	out.Broadcast(&TimeoutMsg{View: v, Share: share})
	n.startViewChange(v+1, out)
}

// handleTimeout records another replica's timeout vote; f+1 votes for the
// current (or a later) view are proof the leader is faulty, so this replica
// joins (Appendix A, trigger condition 2).
func (n *Node) handleTimeout(from types.ReplicaID, m *TimeoutMsg, out transport.Sink) {
	if m.View < n.view {
		return
	}
	if !n.plainShareFrom(from, timeoutDigest(m.View), m.Share) {
		return
	}
	n.recordTimeout(m.View, from)
	shedOldestView(n.timeoutVotes, from)
	if len(n.timeoutVotes[m.View]) >= n.q.Small() && !n.votedTimeout(m.View) {
		n.voteTimeout(m.View, out)
	}
}

func (n *Node) recordTimeout(v types.View, from types.ReplicaID) {
	votes := n.timeoutVotes[v]
	if votes == nil {
		votes = make(map[types.ReplicaID]struct{}, n.q.Small())
		n.timeoutVotes[v] = votes
	}
	votes[from] = struct{}{}
}

// votedTimeout reports whether this replica has voted to leave view v: its
// own vote is recorded with the others', and never shed.
func (n *Node) votedTimeout(v types.View) bool {
	_, voted := n.timeoutVotes[v][n.cfg.ID]
	return voted
}

// maxViewsAhead is how many views one sender may have timeout votes, or
// view-change messages, on record for here. Both are kept per view for views
// this replica has not reached, and enterNewView releases what it passes, so
// this bounds a sender that signs for views nobody will reach. An honest
// sender climbs one view per escalation, with doubling patience, and what
// counts toward moving this replica is its newest rungs: past the budget its
// oldest entry goes, and nothing it sends is refused.
const maxViewsAhead = 64

// shedOldestView drops from's entry under its lowest view once it has more
// than maxViewsAhead of them.
func shedOldestView[E any](byView map[types.View]map[types.ReplicaID]E, from types.ReplicaID) {
	held, oldest := 0, types.View(0)
	for v, senders := range byView {
		if _, ok := senders[from]; ok {
			if held == 0 || v < oldest {
				oldest = v
			}
			held++
		}
	}
	if held <= maxViewsAhead {
		return
	}
	delete(byView[oldest], from)
	if len(byView[oldest]) == 0 {
		delete(byView, oldest)
	}
}

// startViewChange moves this replica into the view change targeting the
// given view and sends its view-change message to the new leader.
func (n *Node) startViewChange(target types.View, out transport.Sink) {
	if target <= n.view || target <= n.pendingView {
		return
	}
	if n.InViewChange() {
		// Escalating past a failed target view: double the patience.
		n.vcPatience *= 2
	} else {
		n.vcPatience = 4 * n.cfg.ViewChangeTimeout
	}
	if n.vcPatience > n.cfg.ViewChangeMaxTimeout {
		n.vcPatience = n.cfg.ViewChangeMaxTimeout
	}
	n.pendingView = target
	n.vcStartedAt = n.now
	n.trace(obs.EvViewChangeStart, uint64(target), 0)

	msg := n.buildViewChangeMsg(target)
	newLeader := types.LeaderOf(target, n.q.N)
	if newLeader == n.cfg.ID {
		n.collectViewChange(n.cfg.ID, msg, out)
		return
	}
	out.Send(transport.Unicast(newLeader, msg))
}

// buildViewChangeMsg assembles <view-change, v+1, lc, B> (Appendix A). B is
// the notarization on every slot above the watermark: the highest-view one
// this replica has learned in any view or life, because dropping one learned
// in an earlier view would break the quorum intersection that keeps a
// confirmed-and-executed block from being redone as a dummy (see slot).
func (n *Node) buildViewChangeMsg(target types.View) *ViewChangeMsg {
	msg := &ViewChangeMsg{
		NewView:    target,
		Checkpoint: n.lastCheckpoint,
		Sender:     n.cfg.ID,
	}
	sns := make([]types.SeqNum, 0, len(n.slots))
	for sn, s := range n.slots {
		if sn > n.lw && s.notarized.Block != nil {
			sns = append(sns, sn)
		}
	}
	sort.Slice(sns, func(i, j int) bool { return sns[i] < sns[j] })
	for _, sn := range sns {
		msg.Blocks = append(msg.Blocks, n.slots[sn].notarized)
	}
	share, err := n.suite.Sign(n.cfg.ID, viewChangeDigest(msg))
	if err == nil {
		msg.Share = share
	}
	return msg
}

// validViewChangeMsg verifies a view-change message's signature, checkpoint
// proof and notarization proofs.
func (n *Node) validViewChangeMsg(from types.ReplicaID, m *ViewChangeMsg) bool {
	if m.Sender != from {
		return false
	}
	if !n.plainShareFrom(from, viewChangeDigest(m), m.Share) {
		return false
	}
	if m.Checkpoint != nil {
		d := CheckpointDigest(m.Checkpoint.Seq, m.Checkpoint.StateHash)
		if err := n.suite.VerifyProof(d, m.Checkpoint.Proof); err != nil {
			return false
		}
	}
	for i := range m.Blocks {
		nb := &m.Blocks[i]
		if nb.Block == nil {
			return false
		}
		if crypto.HashBFTblock(nb.Block) != nb.Digest {
			return false
		}
		if err := n.suite.VerifyProof(nb.Digest, nb.Notarized); err != nil {
			return false
		}
	}
	return true
}

// handleViewChange collects view-change messages at the would-be leader of
// the target view; 2f+1 of them produce the new-view message.
func (n *Node) handleViewChange(from types.ReplicaID, m *ViewChangeMsg, out transport.Sink) {
	if types.LeaderOf(m.NewView, n.q.N) != n.cfg.ID || m.NewView <= n.view {
		return
	}
	n.collectViewChange(from, m, out)
}

func (n *Node) collectViewChange(from types.ReplicaID, m *ViewChangeMsg, out transport.Sink) {
	if !n.validViewChangeMsg(from, m) {
		return
	}
	msgs := n.vcMsgs[m.NewView]
	if msgs == nil {
		msgs = make(map[types.ReplicaID]*ViewChangeMsg, n.q.Quorum())
		n.vcMsgs[m.NewView] = msgs
	}
	msgs[from] = m
	shedOldestView(n.vcMsgs, from)
	if len(msgs) < n.q.Quorum() {
		return
	}
	// Assemble the new-view message with 2f+1 view-change messages, in
	// sender order for determinism. It is sent once: entering the view
	// below is what stops both callers from collecting for it again.
	senders := make([]types.ReplicaID, 0, len(msgs))
	for id := range msgs {
		senders = append(senders, id)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	nv := &NewViewMsg{NewView: m.NewView}
	for _, id := range senders[:n.q.Quorum()] {
		nv.Proofs = append(nv.Proofs, *msgs[id])
	}
	share, err := n.suite.Sign(n.cfg.ID, newViewDigest(nv))
	if err != nil {
		return
	}
	nv.Share = share
	out.Broadcast(nv)
	n.enterNewView(nv, out)
}

// handleNewView validates a new-view message and enters the new view.
func (n *Node) handleNewView(from types.ReplicaID, m *NewViewMsg, out transport.Sink) {
	if m.NewView <= n.view || types.LeaderOf(m.NewView, n.q.N) != from {
		return
	}
	if !n.plainShareFrom(from, newViewDigest(m), m.Share) {
		return
	}
	seen := make(map[types.ReplicaID]struct{}, len(m.Proofs))
	for i := range m.Proofs {
		vc := &m.Proofs[i]
		if vc.NewView != m.NewView || !n.validViewChangeMsg(vc.Sender, vc) {
			return
		}
		if _, dup := seen[vc.Sender]; dup {
			return
		}
		seen[vc.Sender] = struct{}{}
	}
	if len(seen) < n.q.Quorum() {
		return
	}
	n.enterNewView(m, out)
}

// redoPlan is the deterministic block selection derived from a new-view
// message: for every serial number above the recovered watermark up to the
// highest notarized one, either a carried notarized block (highest view
// wins) or a dummy empty block.
type redoPlan struct {
	lw     types.SeqNum
	maxSN  types.SeqNum
	chosen map[types.SeqNum]*types.BFTblock // nil entry = dummy
	cp     *CheckpointProofMsg
}

// computeRedo derives the redo plan from the 2f+1 view-change messages.
func computeRedo(m *NewViewMsg) redoPlan {
	plan := redoPlan{chosen: make(map[types.SeqNum]*types.BFTblock)}
	bestView := make(map[types.SeqNum]types.View)
	for i := range m.Proofs {
		vc := &m.Proofs[i]
		if vc.Checkpoint != nil && vc.Checkpoint.Seq > plan.lw {
			plan.lw = vc.Checkpoint.Seq
			plan.cp = vc.Checkpoint
		}
		for j := range vc.Blocks {
			nb := &vc.Blocks[j]
			sn := nb.Block.Seq
			if sn > plan.maxSN {
				plan.maxSN = sn
			}
			if v, ok := bestView[sn]; !ok || nb.Block.View > v {
				bestView[sn] = nb.Block.View
				plan.chosen[sn] = nb.Block
			}
		}
	}
	return plan
}

// enterNewView installs the new view, recomputes the redo plan, and (when
// this replica is the new leader) re-proposes the carried blocks.
func (n *Node) enterNewView(m *NewViewMsg, out transport.Sink) {
	plan := computeRedo(m)

	n.view = m.NewView
	n.pendingView = 0
	n.vcPatience = 0 // completed: next view change starts patient again
	n.lastProgress = n.now
	n.stats.ViewChanges++
	n.trace(obs.EvViewChangeDone, uint64(m.NewView), 0)
	// Persist the entered view so a restart resumes here instead of at
	// view 1 (where it would ignore the live leader until the next view
	// change). Rare event, so the synchronous metadata write is fine.
	n.persistMeta()
	if plan.cp != nil && plan.cp.Seq > n.lw {
		n.applyCheckpoint(plan.cp)
	}
	// Votes to leave a view below this one, and view-change messages for
	// this view or below, have nothing left to decide.
	maps.DeleteFunc(n.timeoutVotes, func(v types.View, _ map[types.ReplicaID]struct{}) bool { return v < n.view })
	maps.DeleteFunc(n.vcMsgs, func(v types.View, _ map[types.ReplicaID]*ViewChangeMsg) bool { return v <= n.view })

	// Everything the old view owned goes at once. The confirmed log and the
	// notarizations survive on the slots; every unconfirmed instance will be
	// re-agreed via the redo plan, and its waits on missing datablocks go
	// with it.
	for sn, inst := range n.cur.instances {
		n.dropWaits(sn, inst)
	}
	n.cur = newViewRecord()

	// Record what the new leader must propose for each redo slot, so an
	// equivocating new leader is caught by handleBFTblock. The plan's
	// highest notarized slot can sit below this replica's own watermark
	// (nothing notarized since the last checkpoint), leaving no redo work.
	// A redo slot's datablocks count as linked: their holders announce them
	// again below (nothing linking them has confirmed), and a leader that
	// linked one into a fresh block too would execute it twice — or never,
	// once the checkpoint past its first link released the body.
	capHint := int(plan.maxSN - n.lw)
	if capHint < 0 {
		capHint = 0
	}
	redoBlocks := make([]*types.BFTblock, 0, capHint)
	for sn := n.lw + 1; sn <= plan.maxSN; sn++ {
		var blk *types.BFTblock
		if prev, ok := plan.chosen[sn]; ok {
			blk = &types.BFTblock{View: n.view, Seq: sn, Content: prev.Content}
		} else {
			blk = &types.BFTblock{View: n.view, Seq: sn} // dummy filler
		}
		n.cur.redo[sn] = crypto.HashBFTblock(blk)
		for _, h := range blk.Content {
			n.cur.readySet[h] = struct{}{}
		}
		redoBlocks = append(redoBlocks, blk)
	}

	// Replay proposals that overtook the new-view announcement.
	replay := n.futureBlocks
	n.futureBlocks = nil
	for _, m := range replay {
		if m.Block.View == n.view {
			n.handleBFTblock(n.Leader(), m, out)
		} else if m.Block.View > n.view && len(n.futureBlocks) < 4*n.cfg.MaxParallel {
			n.futureBlocks = append(n.futureBlocks, m)
		}
	}

	// The new leader's schedule restarts above the redo plan.
	if n.isLeader() {
		n.nextSeq = plan.maxSN + 1
		if n.nextSeq <= n.lw {
			n.nextSeq = n.lw + 1
		}
		for _, blk := range redoBlocks {
			// Propose every redo slot — including blocks already confirmed
			// locally, so lagging replicas converge (cheap: content is only
			// hashes).
			n.propose(blk, out)
			if n.walFailed {
				return // a failed vote persist latched the fail-stop mid-redo
			}
		}
	}

	// Re-announce held, unconfirmed datablocks to the new leader so its
	// ready queue can be rebuilt.
	n.reannounceDatablocks(out)
}

// unconfirmedPooled returns the sorted digests of pooled datablocks that
// have not appeared in any confirmed block yet.
func (n *Node) unconfirmedPooled() []types.Hash {
	var out []types.Hash
	for h, e := range n.datablocks {
		if e.body != nil && !e.confirmed {
			out = append(out, h)
		}
	}
	slices.SortFunc(out, func(a, b types.Hash) int { return bytes.Compare(a[:], b[:]) })
	return out
}

// reannounceDatablocks sends Ready for every pooled datablock that has not
// been confirmed yet, rebuilding the new leader's ready state.
func (n *Node) reannounceDatablocks(out transport.Sink) {
	digests := n.unconfirmedPooled()
	for _, h := range digests {
		n.sendReady(h, out)
	}
	if !n.isLeader() {
		return
	}
	// The leader also re-credits the generator for blocks it holds.
	for _, h := range digests {
		n.recordReady(h, n.body(h).Ref.Generator)
	}
}
