package leopard

import (
	"bytes"
	"slices"
	"sort"
	"time"

	"leopard/internal/codec"
	"leopard/internal/crypto"
	"leopard/internal/erasure"
	"leopard/internal/merkle"
	"leopard/internal/obs"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// noteMissing registers a datablock digest as missing and starts its
// retrieval timer (Alg. 3, Query step).
func (n *Node) noteMissing(h types.Hash, waiter types.SeqNum) {
	r := n.missing[h]
	if r == nil {
		r = &retrievalState{
			firstMissing: n.now,
			offered:      make(map[types.ReplicaID]chunkSet),
			chunks:       make(map[chunkSet]map[int][]byte),
			waiters:      make(map[types.SeqNum]struct{}),
		}
		n.missing[h] = r
	}
	r.waiters[waiter] = struct{}{}
}

// dropWaits withdraws instance sn's waits on the datablocks it still
// misses, for an instance that is being discarded; an entry goes with its
// last waiter, so a digest nothing waits on any more is not queried for the
// node's lifetime. The wait of a confirmed block stays: its slot still
// needs the body to execute (and tryExecute registers the frontier block's
// waits again whenever it finds a body missing).
func (n *Node) dropWaits(sn types.SeqNum, inst *instance) {
	blk := n.confirmedBlock(sn)
	for h := range inst.missing {
		r := n.missing[h]
		if r == nil || (blk != nil && slices.Contains(blk.Content, h)) {
			continue
		}
		delete(r.waiters, sn)
		if len(r.waiters) == 0 {
			delete(n.missing, h)
		}
	}
}

// checkRetrievalTimers multicasts a batched Query for every missing
// datablock whose timer expired; stale queries are re-sent.
func (n *Node) checkRetrievalTimers(out transport.Sink) {
	var due []types.Hash
	for h, r := range n.missing {
		fresh := !r.queried && n.now-r.firstMissing >= n.cfg.RetrievalTimeout
		retry := r.queried && n.now-r.queriedAt >= 8*n.cfg.RetrievalTimeout
		if fresh || retry {
			due = append(due, h)
		}
	}
	if len(due) == 0 {
		return
	}
	slices.SortFunc(due, func(a, b types.Hash) int { return bytes.Compare(a[:], b[:]) })
	for _, h := range due {
		r := n.missing[h]
		if !r.queried {
			n.trace(obs.EvRetrievalStart, traceID(h), 0)
		}
		r.queried = true
		r.queriedAt = n.now
	}
	out.Broadcast(&QueryMsg{Digests: due})
}

// serveCooldown is how long a (digest, requester) pair is refused after
// being served — the retrieval anti-amplification bound.
//
// Invariant: serveCooldown must stay strictly below the re-query cadence
// (8×RetrievalTimeout, checkRetrievalTimers), so that by the time an
// honest requester legitimately re-queries, its previous serve has aged
// out and the retry is answered.
//
// Derivation: under the drop-on-overflow transport the cooldown was
// 4×RetrievalTimeout — deliberately well under the cadence, because a
// RespMsg lost to a full bulk queue was a routine event and the requester
// might effectively need a fast second serve. Under credit-based flow
// control the bulk lane no longer drops on overflow: a response parks
// until the requester grants credit, and is lost only to the rare
// park-budget eviction of a stalled peer or a connection reset. With
// response loss exceptional rather than routine, the cooldown widens to
// 6×RetrievalTimeout — cutting the amplification a Byzantine querier can
// extract by another third — while keeping the strict margin below 8× so
// a retry after an eviction is always served.
func (n *Node) serveCooldown() time.Duration { return 6 * n.cfg.RetrievalTimeout }

// rsCodec returns the (f+1, n) Reed–Solomon codec shared by retrieval. The
// GF(2^8) code supports at most 256 chunks, so for n > 256 the retrieval
// committee is the first 256 replicas (same 256-shard ceiling as the
// Reed–Solomon library the paper's implementation used); the paper's
// retrieval experiments run at n <= 128.
//
// The codec is built once and cached on the node: its multiplication
// tables and decode-matrix cache are only effective when they persist
// across datablocks.
func (n *Node) rsCodec() (*erasure.Codec, error) {
	if n.rs != nil {
		return n.rs, nil
	}
	shards := n.q.N
	if shards > 256 {
		shards = 256
	}
	rs, err := erasure.NewCodec(n.q.Small(), shards)
	if err != nil {
		return nil, err
	}
	n.rs = rs
	return rs, nil
}

// handleQuery serves erasure chunks for datablocks this replica holds
// (Alg. 3, Response step). Each (digest, requester) pair is served at most
// once per serveCooldown, which bounds the amplification a Byzantine
// querier can cause to one chunk per period while still letting an honest
// requester recover a response that a saturated transport dropped from its
// bounded bulk queue.
func (n *Node) handleQuery(from types.ReplicaID, m *QueryMsg, out transport.Sink) {
	for _, digest := range m.Digests {
		e := n.datablocks[digest]
		if e == nil || e.body == nil {
			continue
		}
		if last, done := e.served[from]; done && n.now-last < n.serveCooldown() {
			continue
		}
		if e.served == nil {
			e.served = make(map[types.ReplicaID]time.Duration)
		}
		e.served[from] = n.now
		if n.cfg.LeaderRetrieval {
			// Ablation A1: only the leader answers, with the full block.
			if n.isLeader() {
				out.Send(transport.Unicast(from, &FullBlockMsg{Digest: digest, Block: e.body}))
			}
			continue
		}
		resp, err := n.buildResponse(digest, e)
		if err != nil {
			continue
		}
		out.Send(transport.Unicast(from, resp))
	}
}

// buildResponse erasure-codes the datablock, builds the Merkle tree over
// the chunks, and returns this replica's chunk with its inclusion proof.
// The response is independent of the requester (a replica always serves
// the chunk at its own index), so it is built once per digest and kept in
// the datablock's record until the datablock itself is garbage-collected;
// without this, a broadcast Query from n-1 peers would trigger n-1
// identical encode + Merkle passes over the same block.
func (n *Node) buildResponse(digest types.Hash, e *dbEntry) (*RespMsg, error) {
	if e.resp != nil {
		return e.resp, nil
	}
	rs, err := n.rsCodec()
	if err != nil {
		return nil, err
	}
	// The marshal buffer is pooled: Encode copies the systematic bytes
	// into its own shards, so the buffer can be released right after.
	w := codec.GetWriter()
	db := e.body
	codec.Encoder(w).Datablock(&db)
	data := w.Buf
	chunks, err := rs.Encode(data)
	dataLen := len(data)
	codec.PutWriter(w)
	if err != nil {
		return nil, err
	}
	leaves := make([][]byte, len(chunks))
	for i, c := range chunks {
		leaves[i] = c.Data
	}
	tree, err := merkle.New(leaves)
	if err != nil {
		return nil, err
	}
	idx := int(n.cfg.ID)
	proof, err := tree.Prove(idx)
	if err != nil {
		return nil, err
	}
	// Copy the served chunk out of Encode's shared backing array: all n
	// chunks alias one n×size allocation, and a receiver retaining the
	// chunk (in-process simulation delivers by reference) would otherwise
	// pin the whole thing.
	resp := &RespMsg{
		Digest:  digest,
		Root:    tree.Root(),
		Chunk:   append([]byte(nil), chunks[idx].Data...),
		Index:   idx,
		Proof:   proof,
		DataLen: dataLen,
	}
	e.resp = resp
	return resp, nil
}

// handleResp collects chunks; once f+1 chunks agree on one Merkle root and
// data length, the datablock is decoded, digest-checked and admitted
// (Alg. 3, lines 22-28).
func (n *Node) handleResp(from types.ReplicaID, m *RespMsg, out transport.Sink) {
	r := n.missing[m.Digest]
	if r == nil {
		return
	}
	if m.Index != int(from) {
		return // each replica serves the chunk at its own index
	}
	if err := merkle.Verify(m.Root, m.Proof, m.Chunk); err != nil || m.Proof.Index != m.Index {
		return
	}
	// One chunk set per responder, the first it offers: an honest responder
	// only ever has the one, and a lying one cannot grow the maps below past
	// a set per replica. A wrong DataLen under the honest root is a set of
	// its own, so it cannot shut the honest chunks out.
	set := chunkSet{root: m.Root, dataLen: m.DataLen}
	if prev, offered := r.offered[from]; offered && prev != set {
		return
	}
	r.offered[from] = set
	chunks := r.chunks[set]
	if chunks == nil {
		chunks = make(map[int][]byte)
		r.chunks[set] = chunks
	}
	// m.Chunk is retained past this handler. Under zero-copy decode it
	// sub-slices the response frame, which is almost entirely chunk bytes,
	// so keeping the frame alive until the datablock decodes is the
	// intended ownership transfer — no copy needed.
	//lint:retains-frame the chunk IS the frame; holding it until the datablock decodes is the zero-copy retrieval path's whole point
	chunks[m.Index] = m.Chunk
	if len(chunks) < n.q.Small() {
		return
	}
	db, ok := n.decodeRoot(m.Digest, chunks, set.dataLen)
	if !ok {
		// The set was bogus (only possible with >= f+1 colluding faulty
		// responders, or corrupted chunks); discard it and keep waiting
		// for an honest one.
		delete(r.chunks, set)
		return
	}
	n.stats.Retrievals++
	n.trace(obs.EvRetrievalDone, traceID(m.Digest), 1)
	n.acceptDatablock(m.Digest, db, nil, out)
}

// decodeRoot attempts to reconstruct and digest-check a datablock from f+1
// chunks collected in one chunk set.
func (n *Node) decodeRoot(digest types.Hash, byRoot map[int][]byte, dataLen int) (*types.Datablock, bool) {
	rs, err := n.rsCodec()
	if err != nil {
		return nil, false
	}
	// No need to order the chunks: Decode selects and canonically sorts
	// them itself (the decode-matrix cache keys on the sorted index set).
	chunks := make([]erasure.Chunk, 0, len(byRoot))
	for idx, data := range byRoot {
		chunks = append(chunks, erasure.Chunk{Index: idx, Data: data})
	}
	data, err := rs.Decode(chunks, dataLen)
	if err != nil {
		return nil, false
	}
	// Decode returns a fresh buffer used nowhere else, so the datablock can
	// borrow its request payloads from it (the block keeps data alive).
	db, err := codec.UnmarshalDatablockBorrowed(data)
	if err != nil {
		return nil, false
	}
	if crypto.HashDatablock(db) != digest {
		return nil, false
	}
	return db, true
}

// handleFullBlock processes the ablation-A1 leader response.
func (n *Node) handleFullBlock(from types.ReplicaID, m *FullBlockMsg, out transport.Sink) {
	if n.missing[m.Digest] == nil || m.Block == nil {
		return
	}
	if crypto.HashDatablock(m.Block) != m.Digest {
		return
	}
	n.stats.Retrievals++
	n.trace(obs.EvRetrievalDone, traceID(m.Digest), 2)
	n.acceptDatablock(m.Digest, m.Block, nil, out)
}

// resolveMissing is called when a previously missing datablock arrives by
// any path: it unblocks first-round votes and execution.
func (n *Node) resolveMissing(h types.Hash, out transport.Sink) {
	r := n.missing[h]
	if r == nil {
		return
	}
	delete(n.missing, h)
	waiters := make([]types.SeqNum, 0, len(r.waiters))
	for sn := range r.waiters {
		waiters = append(waiters, sn)
	}
	sort.Slice(waiters, func(i, j int) bool { return waiters[i] < waiters[j] })
	for _, sn := range waiters {
		inst := n.cur.instances[sn]
		if inst == nil || inst.block == nil {
			continue
		}
		if inst.missing != nil {
			delete(inst.missing, h)
		}
		if len(inst.missing) == 0 {
			n.vote(inst, 1, out)
		}
	}
	n.tryExecute(out)
}
