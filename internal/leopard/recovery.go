package leopard

import (
	"encoding/binary"
	"time"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/obs"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// This file implements the durability and recovery subsystem: persistence
// of executed blocks and stable checkpoints through Config.Store, replay of
// the durable state at Start, and the checkpoint-anchored state-transfer
// protocol (StateReqMsg / StateRespMsg) by which a replica that restarted
// behind the cluster fetches the newest stable checkpoint certificate and
// the executed range above it from peers — instead of re-running agreement
// or storming the per-datablock retrieval path.
//
// Votes above the last executed block are persisted too (vote-ahead
// logging, persistVote — durable before the vote is broadcast): a replica
// that crashes between voting and executing reloads its vote locks here and
// therefore cannot sign different content for the same (view, seq) slot in
// its next life. Round-2 votes additionally persist the notarization
// certificate they endorse (persistNote), reloaded onto the slot so the
// replica keeps advertising the block in view-change messages. The
// chaos experiment's crash-between-vote-and-execute schedule exercises
// exactly this window, and fails when handed a store that forgets votes
// and notes.

// counterReserveSlack is how far ahead of the live datablock counter the
// persisted reservation runs. A restart resumes from the reservation,
// skipping at most this many counters — one metadata fsync per slack-many
// datablocks buys restart-safe (generator, counter) uniqueness.
const counterReserveSlack = 1024

// stateServeState is the per-requester state-transfer serve bookkeeping:
// when the requester was last answered, and the minimum Have that proves
// it consumed that answer (the last seq the response carried). A requester
// presenting Have >= nextHave bypasses the cooldown — that is what lets a
// recovering replica page through the log at transfer speed — while any
// other request inside the window is refused, as in retrieval's (digest,
// requester) bound. Keying by requester alone bounds the map at N-1
// entries, and the monotonic nextHave bounds what a Byzantine requester
// can extract per window by varying Have to one pass over the log plus
// one empty ack — the cost of one honest recovery.
type stateServeState struct {
	at       time.Duration
	nextHave types.SeqNum
}

// recoverFromStore restores the replica's durable state at Start: local
// metadata (view, counter reservation), the stable-checkpoint anchor, and
// a replay of the contiguous log tail above it. Replayed blocks re-run the
// executor callback, so the application rebuilds the same state it had at
// the last fsync batch; the remainder is fetched via state transfer.
// Records in the local WAL were verified before they were appended, so
// replay trusts them (the CRC layer guards against disk corruption).
func (n *Node) recoverFromStore(out transport.Sink) {
	st := n.store
	meta := st.Meta()
	if meta.View > n.view {
		n.view = meta.View
	}
	if meta.CounterReserve > 0 {
		n.dbCounter = meta.CounterReserve
		n.counterReserve = meta.CounterReserve
	}
	if cp, ok := st.Checkpoint(); ok {
		n.lastCheckpoint = &CheckpointProofMsg{Seq: cp.Seq, StateHash: cp.StateHash, Proof: cp.Proof}
		n.lw = cp.Seq
		if cp.Seq > n.executedTo {
			// The anchor is ahead of (or at) any replayable record: execution
			// resumes from the checkpointed state.
			n.executedTo = cp.Seq
			n.execState = cp.StateHash
		}
	}
	// Replay rebuilds local state only: the requests in replayed blocks were
	// already answered (or will be re-requested by their clients), so the
	// reply path stays quiet until live execution resumes.
	n.replaying = true
	for {
		rec, ok := st.Get(n.executedTo + 1)
		if !ok || rec.Block == nil || len(rec.Datablocks) != len(rec.Block.Content) {
			break
		}
		n.replayRecord(rec)
	}
	n.replaying = false
	if _, last := st.Bounds(); last != 0 && last != n.executedTo {
		// The durable tail does not meet the execution frontier: the anchor
		// was saved ahead of the last appended record (the watermark advanced
		// on a quorum proof while execution lagged, then the replica
		// crashed), or replay stopped at a malformed record. Appends resume
		// at executedTo+1, so re-anchor the log — without this every future
		// Append fails non-contiguous and the replica silently never
		// persists again. The discarded records sit under the saved
		// checkpoint certificate (or are unreadable), so nothing recoverable
		// is lost.
		if err := st.Reset(n.executedTo); err != nil {
			n.stats.WALErrors++
		}
	}
	n.nextSeq = n.executedTo + 1
	if n.nextSeq <= n.lw {
		n.nextSeq = n.lw + 1
	}
	n.reloadVoteLocks(st)
	n.reloadNotes(st)
	if n.maxConfirmed < n.executedTo {
		n.maxConfirmed = n.executedTo
	}
	// Nothing below the anchor was pooled in this life; start the prune
	// cursor there so the first watermark advance does not walk history.
	n.prunedTo = n.lw
	// Probe peers for what was decided while this replica was down. Even
	// an empty store probes: a replica restarted with a lost data dir
	// still recovers — the whole state arrives anchored at the cluster's
	// checkpoint. (At genesis the probe is a no-op round: peers answer
	// with empty acks and the sync flag clears.)
	n.needSync = true
	n.sendStateReq(out)
}

// reloadVoteLocks restores the vote-ahead locks from the store: every
// persisted vote above the recovered execution frontier re-pins its
// (view, seq) slot, so this life cannot sign different content where the
// previous one already voted. A vote of round k sets that round's lock on
// the slot's instance, ahead of its block: the round signs no other digest
// (vote), round 1 takes no proposal with another (handleBFTblock), and the
// leader proposes nothing over it (maybePropose). The locks live in the
// view record and go with it, so votes from earlier views need none, and a
// vote from a later view than the recovered meta proves that view was
// entered, so the view advances to match.
//
//lint:voteahead-exempt replaying locks FROM the durable vote log: every record written here was persisted by a checked persistVote in a previous life
func (n *Node) reloadVoteLocks(st storage.Store) {
	votes := st.Votes()
	for _, v := range votes {
		if v.View > n.view {
			n.view = v.View
		}
	}
	for _, v := range votes {
		if v.View != n.view || v.Seq <= n.executedTo {
			continue
		}
		if v.Round == 1 || v.Round == 2 {
			n.getInstance(v.Seq).rounds[v.Round-1].lock = v.Digest
		}
		n.stats.VotesReloaded++
	}
}

// reloadNotes restores the slots' notarizations from the persisted
// certificates: every note above the recovered watermark is learned again,
// so this replica's view-change messages keep advertising blocks it cast σ2
// votes for in a previous life. Without this, a cascade of crash-restarts
// among the 2f+1 σ2 voters erases a confirmed block's last advertised
// notarization and a later redo can replace it with a dummy — the same
// quorum-intersection argument the slot's notarization serves across view
// changes, extended across crashes. Notes are view-agnostic (the highest
// block view per seq wins, learnNotarization); digests are
// recomputed rather than trusted, certificates are trusted like block
// replay is (CRC-guarded local WAL, verified before append).
func (n *Node) reloadNotes(st storage.Store) {
	for _, nt := range st.Notes() {
		if nt.Block == nil || nt.Block.Seq <= n.lw {
			continue
		}
		if n.learnNotarization(NotarizedBlock{
			Block:     nt.Block,
			Digest:    crypto.HashBFTblock(nt.Block),
			Notarized: nt.Notarized,
		}) {
			n.stats.NotesReloaded++
		}
	}
}

// replayRecord re-applies one WAL record during recovery: no outbound
// traffic, no re-verification, just the execution bookkeeping tryExecute
// would have done.
func (n *Node) replayRecord(rec *storage.BlockRecord) {
	block := rec.Block
	n.slot(rec.Seq).block = block
	for i, h := range block.Content {
		n.holdDecided(h, rec.Datablocks[i])
	}
	n.executeBlock(rec.Seq, block, rec.Datablocks)
	n.stats.ConfirmedBlocks++
	n.stats.BlocksReplayed++
	n.stats.BytesReplayed += int64(rec.WireSize())
}

// persistExecuted appends the block executed at sn to the WAL, with the
// certificates its slot has held since confirmation. Append only stages the
// record (group-committed fsync), so this sits on the hot execute path at
// encode+memcpy cost — see storage.Log and BenchmarkWALAppend.
func (n *Node) persistExecuted(sn types.SeqNum, block *types.BFTblock, datablocks []*types.Datablock) {
	s := n.slots[sn]
	rec := &storage.BlockRecord{
		Seq: sn, Block: block, Datablocks: datablocks,
		Notarized: s.sigma1, Confirmed: s.sigma2,
	}
	if err := n.store.Append(rec); err != nil {
		n.stats.WALErrors++
	}
}

// persistMeta writes the replica-local metadata through the store.
func (n *Node) persistMeta() {
	if n.store == nil {
		return
	}
	if err := n.store.SaveMeta(storage.Meta{View: n.view, CounterReserve: n.counterReserve}); err != nil {
		n.stats.WALErrors++
	}
}

// reserveCounter advances the persisted datablock-counter reservation when
// the live counter catches up to it.
func (n *Node) reserveCounter() {
	if n.store == nil || n.dbCounter < n.counterReserve {
		return
	}
	n.counterReserve = n.dbCounter + counterReserveSlack
	n.persistMeta()
}

// stateRetryInterval paces a recovering replica's state requests. It must
// exceed the responder serve cooldown (serveCooldown, 6×RetrievalTimeout)
// so a retry at the same height is served, mirroring retrieval's re-query
// cadence.
func (n *Node) stateRetryInterval() time.Duration { return 8 * n.cfg.RetrievalTimeout }

// frontierStalled reports whether the execution frontier cannot advance
// right now: the replica is behind a stable checkpoint, or a confirmed
// block exists above a frontier whose next block was never confirmed
// here. Both conditions are routinely transient — confirmation proofs
// arrive out of order, retrieval fills datablock gaps — so stalling only
// starts the stuckBehind clock; it does not by itself trigger recovery.
func (n *Node) frontierStalled() bool {
	if n.lw > n.executedTo {
		return true
	}
	return n.maxConfirmed > n.executedTo && n.confirmedBlock(n.executedTo+1) == nil
}

// stuckBehind reports whether the frontier has been stalled for a full
// retry interval — long past anything the normal path (in-flight proofs,
// retrieval) resolves. Only then may the replica probe peers and, if
// offered a newer stable checkpoint, jump the anchor and skip local
// execution of the range below; a merely-slow replica never jumps.
func (n *Node) stuckBehind() bool {
	return n.behindSince >= 0 && n.now-n.behindSince >= n.stateRetryInterval()
}

// maybeRequestState re-probes for state transfer while the replica is
// syncing after a restart or provably stuck. Driven from Tick.
func (n *Node) maybeRequestState(out transport.Sink) {
	if n.frontierStalled() {
		if n.behindSince < 0 {
			n.behindSince = n.now
		}
	} else {
		n.behindSince = -1
	}
	if !n.needSync && !n.stuckBehind() {
		return
	}
	if n.lastStateReq >= 0 && n.now-n.lastStateReq < n.stateRetryInterval() {
		return
	}
	n.sendStateReq(out)
}

// sendStateReq unicasts a state request to the next f+1 peers in a
// deterministic rotation — at least one recipient is honest, and since
// responses are self-certifying, one honest responder suffices. Used for
// the initial probe and for the paced retries.
func (n *Node) sendStateReq(out transport.Sink) { n.sendStateReqWidth(out, n.q.Small()) }

// sendStateReqWidth is sendStateReq with an explicit fan-out. Paging after
// a productive response uses width 1: every recipient would serve a full
// page of multi-block records while only one copy can be applied, so the
// f+1 fan-out multiplies the transferred range's bulk bytes by f+1 for
// nothing. Liveness is unharmed — if the single rotating peer never
// answers, the paced retry re-probes f+1 after stateRetryInterval.
func (n *Node) sendStateReqWidth(out transport.Sink, k int) {
	n.lastStateReq = n.now
	req := &StateReqMsg{Have: n.executedTo}
	peers := n.q.N - 1
	if k > peers {
		k = peers
	}
	n.trace(obs.EvStateReqSent, uint64(n.executedTo), int64(k))
	for i := 0; i < k; i++ {
		off := (n.stateRound + i) % peers
		peer := types.ReplicaID((int(n.cfg.ID) + 1 + off) % n.q.N)
		out.Send(transport.Unicast(peer, req))
	}
	n.stateRound = (n.stateRound + k) % peers
}

// handleStateReq serves a recovering peer from the durable log: the newest
// stable checkpoint certificate plus up to MaxStateBlocks records
// continuing the requester's height. When the range right above the
// requester has been truncated here, the response anchors the requester at
// this replica's checkpoint and continues from the watermark instead —
// that is the checkpoint-anchored jump.
func (n *Node) handleStateReq(from types.ReplicaID, m *StateReqMsg, out transport.Sink) {
	if n.lastCheckpoint == nil && n.store == nil {
		return
	}
	if prev, seen := n.stateServed[from]; seen && n.now-prev.at < n.serveCooldown() && m.Have < prev.nextHave {
		return
	}
	resp := &StateRespMsg{Checkpoint: n.lastCheckpoint}
	if n.store != nil {
		next := m.Have + 1
		// The retained records are the contiguous run first..last.
		if first, last := n.store.Bounds(); (first == 0 || next < first || next > last) && n.lw > m.Have {
			next = n.lw + 1
		}
		for len(resp.Blocks) < MaxStateBlocks {
			rec, ok := n.store.Get(next)
			if !ok {
				break
			}
			resp.Blocks = append(resp.Blocks, rec)
			next++
		}
	}
	// An empty response is still sent: it is the "you are caught up" ack
	// that lets the requester retire its sync probe.
	entry := stateServeState{at: n.now}
	if k := len(resp.Blocks); k > 0 {
		// Bypassing the cooldown again requires consuming this page, so
		// in-window serves walk nextHave monotonically through the log.
		entry.nextHave = resp.Blocks[k-1].Seq
	} else {
		// Nothing to give: only cooldown expiry re-enables serving, so
		// repeated caught-up (or beyond-tail) probes cost one ack per
		// window.
		entry.nextHave = ^types.SeqNum(0)
	}
	n.stateServed[from] = entry
	n.stats.StateReqsServed++
	out.Send(transport.Unicast(from, resp))
}

// handleStateResp applies a state-transfer response: a verified carried
// checkpoint always advances the watermark; the execution anchor jumps to
// the newest verified certificate only when the replica is provably stuck
// with no connecting blocks; then each contiguous self-certifying record
// is applied. On progress the next page is requested immediately from one
// rotating peer (a height at or past the served page's end bypasses the
// responder cooldown); a response that offers nothing new means we are
// caught up.
func (n *Node) handleStateResp(from types.ReplicaID, m *StateRespMsg, out transport.Sink) {
	n.stats.StateRespsReceived++
	progress := false
	if cp := m.Checkpoint; cp != nil && cp.Seq > n.lw {
		// A verified quorum certificate advances the watermark (and durably
		// saves the anchor) no matter who carried it — exactly as a
		// broadcast CheckpointProofMsg would. Execution does not jump here.
		digest := CheckpointDigest(cp.Seq, cp.StateHash)
		if err := n.suite.VerifyProof(digest, cp.Proof); err == nil {
			n.applyCheckpoint(cp)
		}
	}
	connects := len(m.Blocks) > 0 && m.Blocks[0] != nil && m.Blocks[0].Seq == n.executedTo+1
	if cp := n.lastCheckpoint; cp != nil && cp.Seq > n.executedTo && !connects && n.stuckBehind() {
		// Jump only when provably stuck: the frontier has stalled a full
		// retry interval, long past anything honest connecting blocks (which
		// any honest responder sends when it has them) would have resolved.
		// A single Byzantine first responder offering a bare certificate
		// must not push a replica with a live local path into skipping
		// execution — the skipped range is an application-state hole only a
		// snapshot transfer could fill. The jump targets lastCheckpoint, the
		// newest certificate this replica has verified (the watermark
		// advance above keeps it fresh), not whatever this response carried.
		n.adoptCheckpoint(cp)
		progress = true
	}
	for _, rec := range m.Blocks {
		if rec == nil || rec.Block == nil {
			break
		}
		if rec.Seq <= n.executedTo {
			continue // stale prefix below our frontier
		}
		if rec.Seq != n.executedTo+1 {
			break // gap: nothing beyond it can be applied contiguously
		}
		if !n.applyTransferredRecord(rec, out) {
			break
		}
		progress = true
	}
	if progress {
		n.lastProgress = n.now
		n.tryExecute(out)
		if n.needSync || n.lw > n.executedTo {
			n.sendStateReqWidth(out, 1)
		}
		return
	}
	if n.executedTo >= n.lw {
		// Nothing newer anywhere we can see: consider the sync done. If the
		// confirmed log later shows a gap at the execution frontier,
		// confirmBlock re-arms needSync.
		n.needSync = false
	}
}

// adoptCheckpoint jumps this replica's execution state to a verified stable
// checkpoint it cannot reach by replay: executedTo and the execution chain
// hash snap to the certificate, the WAL resets to the new anchor, and the
// watermark machinery garbage-collects everything below. Blocks skipped by
// the jump are never executed locally (Stats.SkippedBlocks counts them) —
// the quorum certificate stands in for them (applications needing full state need snapshot transfer; see
// ROADMAP).
func (n *Node) adoptCheckpoint(cp *CheckpointProofMsg) {
	if cp.Seq > n.executedTo {
		n.stats.SkippedBlocks += int64(cp.Seq - n.executedTo)
	}
	n.executedTo = cp.Seq
	n.execState = cp.StateHash
	if cp.Seq > n.maxConfirmed {
		n.maxConfirmed = cp.Seq
	}
	// Retrieval waiters below the anchor are moot: those instances will be
	// garbage-collected, and the datablocks are being pruned cluster-wide.
	for h, r := range n.missing {
		for sn := range r.waiters {
			if sn <= cp.Seq {
				delete(r.waiters, sn)
			}
		}
		if len(r.waiters) == 0 {
			delete(n.missing, h)
		}
	}
	// applyCheckpoint durably saves the anchor (if this proof is news) and
	// advances the watermark; when the proof was applied earlier the anchor
	// is already on disk. Either way the save happens-before the Reset
	// below, so a crash in between recovers correctly. releaseSettled runs
	// explicitly because applyCheckpoint no-ops when the watermark already
	// reached cp.Seq while execution lagged — the jump is what settles the
	// skipped range.
	n.applyCheckpoint(cp)
	n.releaseSettled()
	// A replica jumps because it was cut off, so the blocks it skips may
	// have linked its datablocks without it ever holding their content, and
	// releaseSettled had nothing to release them by. Let go of every own
	// datablock: one that is in fact still in flight is settled again when
	// its block arrives, and until then the window is one window too wide.
	clear(n.myOutstanding)
	if n.store != nil {
		// The WAL tail below the anchor is obsolete history; re-anchor so
		// appends resume at cp.Seq+1.
		if err := n.store.Reset(cp.Seq); err != nil {
			n.stats.WALErrors++
		}
	}
}

// executionDigest is the view-independent identity of an executed block:
// a redo carried across a view change re-stamps the View field, so a
// replica that executed the original and one that executed the re-proposal
// must still converge on the same execution chain — it is what checkpoint
// shares certify, and mismatched chains would keep them from ever
// combining into a stable checkpoint.
func executionDigest(block *types.BFTblock) types.Hash {
	buf := make([]byte, 0, 20+len(block.Content)*len(types.Hash{}))
	buf = append(buf, []byte("leopard/exec")...)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(block.Seq))
	buf = append(buf, tmp[:]...)
	for _, h := range block.Content {
		buf = append(buf, h[:]...)
	}
	return crypto.HashBytes(buf)
}

// executeBlock runs the execution bookkeeping shared by the normal path
// (tryExecute), WAL replay and state transfer: the per-datablock counter
// ledger, executor callback and request dedup, the replies, then the
// chain-hash/height advance. The caller guarantees datablocks[i] matches
// block.Content[i] and that the block sits exactly at the execution
// frontier.
//
// Replies cost one signature per block, not per request: every reply
// digest of the block goes into one crypto.SignBatch, and each ReplyMsg
// carries its own batch share, valid by itself — for the client, and for
// lastReply to re-send.
func (n *Node) executeBlock(sn types.SeqNum, block *types.BFTblock, datablocks []*types.Datablock) {
	digest := executionDigest(block)
	requests := 0
	for _, db := range datablocks {
		n.noteExecuted(db.Ref)
		requests += len(db.Requests)
		if n.execFn != nil {
			n.execFn(sn, db.Requests)
		}
		if !n.cfg.SkipRequestDedup {
			for _, r := range db.Requests {
				n.reqPool.MarkConfirmed(r.ID())
			}
		}
	}
	n.stats.ConfirmedRequests += int64(requests)
	n.settleOwn(block.Content)
	if n.replyFn != nil && !n.replaying {
		digests := make([]types.Hash, 0, requests)
		for _, db := range datablocks {
			for _, r := range db.Requests {
				digests = append(digests, client.ReplyDigest(r.ClientID, r.Seq, sn, digest))
			}
		}
		// A signing failure (a suite without this replica's key) sends no
		// reply; clients complete from the other replicas.
		if shares, err := crypto.SignBatch(n.suite, n.cfg.ID, digests); err == nil {
			for _, db := range datablocks {
				for _, r := range db.Requests {
					reply := ReplyMsg{Client: r.ClientID, Seq: r.Seq, SN: sn, Result: digest, Share: shares[0]}
					shares = shares[1:]
					n.cacheReply(reply)
					n.replyFn(reply)
					n.stats.RepliesSent++
					n.trace(obs.EvReplySent, r.ClientID, int64(r.Seq))
				}
			}
		}
	}
	n.execState = crypto.HashConcat(n.execState[:], digest[:])
	n.executedTo = sn
	n.stats.ExecutedBlocks++
	n.trace(obs.EvBlockExecuted, uint64(sn), int64(len(datablocks)))
	if sn > n.maxConfirmed {
		n.maxConfirmed = sn
	}
	if n.cfg.OnExecute != nil {
		n.cfg.OnExecute(sn, block, n.execState)
	}
}

// applyTransferredRecord verifies and applies one state-transfer record at
// the execution frontier. Verification is complete — notarization over
// H(block), confirmation over H(σ1), and every datablock against the
// block's content hashes — so records from Byzantine responders cannot
// inject unconfirmed history. Applied blocks execute exactly like locally
// agreed ones (executor callback, dedup bookkeeping, WAL append) but cast
// no votes: agreement already happened.
func (n *Node) applyTransferredRecord(rec *storage.BlockRecord, out transport.Sink) bool {
	block := rec.Block
	if block.Seq != rec.Seq || len(rec.Datablocks) != len(block.Content) {
		return false
	}
	digest := crypto.HashBFTblock(block)
	if err := n.suite.VerifyProof(digest, rec.Notarized); err != nil {
		return false
	}
	sigma1 := crypto.HashBytes(rec.Notarized.Sig)
	if err := n.suite.VerifyProof(sigma1, rec.Confirmed); err != nil {
		return false
	}
	for i, h := range block.Content {
		if rec.Datablocks[i] == nil || crypto.HashDatablock(rec.Datablocks[i]) != h {
			return false
		}
	}
	for i, h := range block.Content {
		if !n.holdDecided(h, rec.Datablocks[i]) {
			// A different datablock with the same (generator, counter) is
			// pooled — equivocation by its generator. The confirmed one wins
			// for execution, but the pool cannot hold both; bail out and let
			// the next response retry after the pool entry is GC'd.
			return false
		}
	}
	n.slot(rec.Seq).block = block
	n.executeBlock(rec.Seq, block, rec.Datablocks)
	n.stats.ConfirmedBlocks++
	n.stats.StateBlocksApplied++
	n.trace(obs.EvStateApplied, uint64(rec.Seq), int64(len(rec.Datablocks)))
	if inst := n.cur.instances[rec.Seq]; inst != nil && inst.state < types.StateExecuted {
		// The slot is decided and executed; a live instance here must not
		// keep the view-change timer armed.
		inst.state = types.StateExecuted
	}
	if n.store != nil {
		if err := n.store.Append(rec); err != nil {
			n.stats.WALErrors++
		}
	}
	for _, h := range block.Content {
		n.resolveMissing(h, out)
	}
	return true
}
