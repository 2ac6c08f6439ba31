package leopard

import (
	"time"

	"leopard/internal/crypto"
	"leopard/internal/obs"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// dbEntry is one datablock's record in Node.datablocks. It is made when the
// replica pools the body or learns the digest confirmed, whichever comes
// first, and dropped by releaseSettled with the block that links it.
type dbEntry struct {
	// body is the datablock; nil while the digest is confirmed here and the
	// body has not arrived.
	body *types.Datablock
	// confirmed marks a digest that some confirmed block links. After a view
	// change only unconfirmed bodies are announced again.
	confirmed bool
	// resp is the retrieval response this replica serves for the body,
	// built on the first query: chunk and proof are the same for every
	// requester.
	resp *RespMsg
	// served is when each requester was last answered (handleQuery's
	// cooldown), made on the first answer.
	served map[types.ReplicaID]time.Duration
	// frame is the wire frame a received body was decoded from, nil for
	// any other body. The record owns it: releaseDatablock returns it to
	// the transport frame pool.
	frame []byte
}

// entry returns the record for digest h, making it on first use.
func (n *Node) entry(h types.Hash) *dbEntry {
	e := n.datablocks[h]
	if e == nil {
		e = &dbEntry{}
		n.datablocks[h] = e
	}
	return e
}

// body returns the held datablock with digest h, nil when none is held.
func (n *Node) body(h types.Hash) *types.Datablock {
	if e := n.datablocks[h]; e != nil {
		return e.body
	}
	return nil
}

// hold pools db under digest h. It refuses a digest already held and a
// (generator, counter) already held under another digest (Alg. 1).
//
// A held body may have been decoded zero-copy: its request payloads can
// sub-slice the frame (or erasure-decoded buffer) it arrived in, and holding
// the body is what keeps that buffer alive. A received datablock's frame is
// passed in and the record takes it over, so it is returned to the pool
// exactly once, when the record is released; a refused body leaves its
// frame to the garbage collector. The table never mutates a body, and
// nothing may read the body's bytes after its release: the executor gets
// the requests only during its call, and the WAL keeps its own copy.
func (n *Node) hold(h types.Hash, db *types.Datablock, frame []byte) bool {
	if _, dup := n.refs[db.Ref]; dup || n.body(h) != nil {
		return false
	}
	e := n.entry(h)
	e.body = db
	//lint:retains-frame the record owns the frame its body borrows from; releaseDatablock returns it to the pool
	e.frame = frame
	n.refs[db.Ref] = struct{}{}
	return true
}

// holdDecided holds a datablock that a decided block links — one replayed
// from the WAL or applied by state transfer — and marks it confirmed. It
// reports false when another body with the same (generator, counter) is
// held. The counter ledger is not asked: decided history executes whatever
// this replica remembers.
func (n *Node) holdDecided(h types.Hash, db *types.Datablock) bool {
	if n.body(h) == nil && !n.hold(h, db, nil) {
		return false
	}
	n.entry(h).confirmed = true
	return true
}

// releaseDatablock drops the record for digest h and its refs key, and
// returns the record's frame to the transport frame pool: it is the one
// place a received frame goes back.
func (n *Node) releaseDatablock(h types.Hash) {
	if e := n.datablocks[h]; e != nil {
		if e.body != nil {
			delete(n.refs, e.body.Ref)
		}
		delete(n.datablocks, h)
		if e.frame != nil {
			transport.PutFrame(e.frame)
		}
	}
}

// counterLedger is what one generator's executed datablock counters leave
// behind, so that Alg. 1's repetitive-counter rule outlives garbage
// collection: once releaseSettled has dropped a datablock, nothing else
// would stop its generator from sending it again and having it pooled,
// linked and executed a second time. Every counter below floor counts as
// executed, and above holds the executed ones past it; contiguous counters
// fold into the floor, as RequestPool.MarkConfirmed folds a client's seqs.
//
// The ledger lives in memory: a replica that restarts starts with an empty
// one, refilled only by the WAL records it replays, so it would pool a
// replay of a datablock settled before its checkpoint anchor. Refusal at
// the replicas that remember is enough: a release needs a stable
// checkpoint, and the first one past the datablock's block has 2f+1
// signers that executed it, so at least f+1 honest replicas refuse the
// replay and it can gather neither a ready quorum nor a first-round quorum.
type counterLedger struct {
	floor uint64
	above map[uint64]struct{}
}

// noteExecuted enters an executed datablock in its generator's ledger. A
// ledger keeps at most MaxParallel × BFTBlockSize counters above its floor,
// the links of one full watermark window; past that the floor moves up to
// the lowest one kept, so the counters it passes count as executed. A
// datablock left unexecuted that far behind its generator's executed ones is
// then refused here unless it is already held; no counter above the floor is
// forgotten.
func (n *Node) noteExecuted(ref types.DatablockRef) {
	l := n.executed[ref.Generator]
	if l == nil {
		// Counters start at 1: maybePackDatablocks increments before use.
		l = &counterLedger{floor: 1, above: make(map[uint64]struct{})}
		n.executed[ref.Generator] = l
	}
	if ref.Counter < l.floor {
		return
	}
	l.above[ref.Counter] = struct{}{}
	if len(l.above) > n.cfg.MaxParallel*n.cfg.BFTBlockSize {
		l.floor = ref.Counter
		for c := range l.above {
			l.floor = min(l.floor, c)
		}
	}
	for {
		if _, ok := l.above[l.floor]; !ok {
			return
		}
		delete(l.above, l.floor)
		l.floor++
	}
}

// wasExecuted reports whether the ledger holds ref.
func (n *Node) wasExecuted(ref types.DatablockRef) bool {
	l := n.executed[ref.Generator]
	if l == nil {
		return false
	}
	_, ok := l.above[ref.Counter]
	return ok || ref.Counter < l.floor
}

// maybePackDatablocks implements the generation loop of Alg. 1: extract
// pending requests, build a datablock, multicast it. Non-leader replicas
// only. A full datablock leaves whenever the outstanding-datablock window
// has room; a partial one only when none of this replica's own is still
// unconfirmed, so what arrives while the pipeline is busy leaves as one
// batch when it drains — the confirmation is the clock, there is no timer.
func (n *Node) maybePackDatablocks(out transport.Sink) {
	if n.InViewChange() || n.isLeader() {
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
		n.hold(digest, db, nil)
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
	n.acceptDatablock(digest, m.Block, m.frame, out)
}

// acceptDatablock admits a datablock into the pool (from dissemination or
// retrieval), announces readiness, and unblocks anything waiting on it. A
// datablock this replica has executed is refused even after its record is
// released (counterLedger). frame is the received frame db borrows from,
// nil when db came some other way (see hold).
func (n *Node) acceptDatablock(digest types.Hash, db *types.Datablock, frame []byte, out transport.Sink) {
	if n.wasExecuted(db.Ref) || !n.hold(digest, db, frame) {
		return // executed before, duplicate digest or duplicate (generator, counter)
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
	held := n.body(digest) != nil
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
