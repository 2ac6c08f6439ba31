package leopard

import (
	"encoding/binary"
	"testing"

	"leopard/internal/crypto"
	"leopard/internal/merkle"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// newFloodTestNode builds replica id of an n=4 cluster (f=1) whose maps the
// flood tests read directly.
func newFloodTestNode(t *testing.T, id types.ReplicaID) *Node {
	return newFloodTestNodeOf(t, 4, id)
}

func newFloodTestNodeOf(t *testing.T, replicas int, id types.ReplicaID) *Node {
	t.Helper()
	q, err := types.NewQuorumParams(replicas)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewSimSuite(replicas, []byte("flood-test"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(Config{ID: id, Quorum: q, Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func numberedHash(i int) types.Hash {
	var h types.Hash
	binary.BigEndian.PutUint64(h[:], uint64(i)+1)
	return h
}

// TestReadyFloodIsShedNotStored: one Byzantine replica announcing 50 000
// datablocks nobody holds must not leave 50 000 entries at the ready
// collector, and must not cost an honest datablock its quorum — neither one
// announced around the flood nor one whose votes arrived before the flood and
// whose body arrives after it (votes travel the control lane and outrun the
// bulk lane).
func TestReadyFloodIsShedNotStored(t *testing.T) {
	collector := types.LeaderOf(1, 4)
	n := newFloodTestNode(t, collector)
	const flooder = types.ReplicaID(3)
	var honest []types.ReplicaID // the two replicas that are neither
	for id := types.ReplicaID(0); id < 4; id++ {
		if id != collector && id != flooder {
			honest = append(honest, id)
		}
	}
	datablock := func(counter uint64) (*types.Datablock, types.Hash) {
		db := &types.Datablock{
			Ref:      types.DatablockRef{Generator: honest[0], Counter: counter},
			Requests: []types.Request{{ClientID: 1, Seq: counter, Payload: []byte("p")}},
		}
		return db, crypto.HashDatablock(db)
	}

	// Both honest replicas announce the early datablock; its body is still
	// in flight.
	early, earlyDigest := datablock(1)
	for _, id := range honest {
		n.Deliver(0, id, &ReadyMsg{Digest: earlyDigest}, transport.Discard)
	}

	const flood = 50_000
	bound := 4*4*DefaultOutstandingDBs + 4 // the flooder's budget, plus the honest entries
	for i := 0; i < flood; i++ {
		n.Deliver(0, flooder, &ReadyMsg{Digest: numberedHash(i)}, transport.Discard)
		if len(n.cur.readyVotes) > bound {
			t.Fatalf("after %d announcements the collector tracks %d digests, want at most %d", i+1, len(n.cur.readyVotes), bound)
		}
		if i == flood/2 {
			// Mid-flood, a datablock arrives the ordinary way: body from its
			// generator, then the other honest replica's announcement.
			mid, midDigest := datablock(2)
			n.Deliver(0, honest[0], &DatablockMsg{Block: mid}, transport.Discard)
			n.Deliver(0, honest[1], &ReadyMsg{Digest: midDigest}, transport.Discard)
			if _, ready := n.cur.readySet[midDigest]; !ready {
				t.Fatal("a datablock announced mid-flood did not reach the ready quorum")
			}
		}
	}
	if got := len(n.cur.readyOrder[flooder]); got > bound {
		t.Fatalf("the flooder's vote list holds %d digests, want at most %d", got, bound)
	}

	n.Deliver(0, honest[0], &DatablockMsg{Block: early}, transport.Discard)
	if _, ready := n.cur.readySet[earlyDigest]; !ready {
		t.Fatal("the flood cost a datablock the honest votes it had gathered before its body arrived")
	}
}

// floodDatablock is the counter-th datablock of generator: one tiny request.
func floodDatablock(generator types.ReplicaID, counter uint64) (*types.Datablock, types.Hash) {
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: generator, Counter: counter},
		Requests: []types.Request{{ClientID: uint64(generator), Seq: counter, Payload: []byte("p")}},
	}
	return db, crypto.HashDatablock(db)
}

// TestDatablockFloodThroughHonestVoter: a Byzantine generator that sends
// 50 000 tiny datablocks to one honest replica only makes that replica
// announce every one of them. The collector must bound what it keeps of
// those, and must not pay for it with the replica's votes on honest
// datablocks: not on one whose body the collector holds and that still waits
// for votes, and not on one whose body is in flight while the flood stays
// inside the voter's budget. (n=7, so a datablock can hold three of its five
// votes.)
func TestDatablockFloodThroughHonestVoter(t *testing.T) {
	const replicas = 7
	collectorID := types.LeaderOf(1, replicas)
	var others []types.ReplicaID
	for id := types.ReplicaID(0); id < replicas; id++ {
		if id != collectorID {
			others = append(others, id)
		}
	}
	generator, voterID, flooder, late := others[0], others[1], others[2], others[3:5]
	collector := newFloodTestNodeOf(t, replicas, collectorID)
	voter := newFloodTestNodeOf(t, replicas, voterID)

	// relay hands the collector whatever the honest voter announces to it.
	var sent transport.SliceSink
	relay := func() {
		for _, env := range sent.Envelopes {
			if _, ok := env.Msg.(*ReadyMsg); ok && env.To == collectorID {
				collector.Deliver(0, voterID, env.Msg, transport.Discard)
			}
		}
		sent.Reset()
	}
	flood := func(from, to int) {
		for i := from; i < to; i++ {
			junk, _ := floodDatablock(flooder, uint64(i)+1)
			voter.Deliver(0, flooder, &DatablockMsg{Block: junk}, &sent)
			relay()
		}
	}
	finish := func(db *types.Datablock, digest types.Hash, lost string) {
		t.Helper()
		collector.Deliver(0, generator, &DatablockMsg{Block: db}, transport.Discard) // a duplicate for a body already here
		for _, id := range late {
			collector.Deliver(0, id, &ReadyMsg{Digest: digest}, transport.Discard)
		}
		if _, ready := collector.cur.readySet[digest]; !ready {
			t.Fatal(lost)
		}
	}

	// held: body at the collector, which counts itself, the generator and the
	// voter — three of five. inFlight: the voter's and the generator's votes
	// outran the body.
	held, heldDigest := floodDatablock(generator, 1)
	inFlight, inFlightDigest := floodDatablock(generator, 2)
	collector.Deliver(0, generator, &DatablockMsg{Block: held}, transport.Discard)
	for _, db := range []*types.Datablock{held, inFlight} {
		voter.Deliver(0, generator, &DatablockMsg{Block: db}, &sent)
		relay()
	}
	collector.Deliver(0, generator, &ReadyMsg{Digest: inFlightDigest}, transport.Discard)

	budget := 4 * replicas * DefaultOutstandingDBs
	flood(0, budget-1)
	finish(inFlight, inFlightDigest, "a flood inside the voter's budget cost a datablock in flight that voter's vote")

	flood(budget-1, 50_000)
	if tracked := len(collector.cur.readyVotes); tracked > budget+1 {
		t.Fatalf("the collector tracks %d digests, want at most the voter's budget of %d and the honest one", tracked, budget)
	}
	finish(held, heldDigest, "a flood through an honest voter cost a datablock the collector holds that voter's vote")
}

// TestDatablockFloodAtCollector: the same flood aimed at the collector, which
// counts itself (and the generator) as a holder of every datablock it pools,
// must not cost the collector its own vote on an honest datablock that still
// waits for its third. What the collector tracks for the flood is bounded by
// the bodies it pooled, as at the parent.
func TestDatablockFloodAtCollector(t *testing.T) {
	collectorID := types.LeaderOf(1, 4)
	var others []types.ReplicaID
	for id := types.ReplicaID(0); id < 4; id++ {
		if id != collectorID {
			others = append(others, id)
		}
	}
	generator, voterID, flooder := others[0], others[1], others[2]
	n := newFloodTestNode(t, collectorID)

	// Two of three votes: the collector's and the generator's.
	honest, honestDigest := floodDatablock(generator, 1)
	n.Deliver(0, generator, &DatablockMsg{Block: honest}, transport.Discard)

	for i := 0; i < 50_000; i++ {
		junk, _ := floodDatablock(flooder, uint64(i)+1)
		n.Deliver(0, flooder, &DatablockMsg{Block: junk}, transport.Discard)
	}
	if tracked, pooled := len(n.cur.readyVotes), len(n.refs); tracked > pooled {
		t.Fatalf("the collector tracks %d digests for %d pooled datablocks", tracked, pooled)
	}
	for voter, order := range n.cur.readyOrder {
		if len(order) != 0 {
			t.Fatalf("replica %d is charged %d votes, all on datablocks the collector holds", voter, len(order))
		}
	}

	n.Deliver(0, voterID, &ReadyMsg{Digest: honestDigest}, transport.Discard)
	if _, ready := n.cur.readySet[honestDigest]; !ready {
		t.Fatal("a flood at the collector cost an honest datablock the collector's own vote")
	}
}

// TestRespFloodKeepsOneRootPerResponder: a lying responder that answers a
// query with 20 000 self-consistent chunks, each under a Merkle root of its
// own, must not leave 20 000 roots in the retrieval state, and the f+1 honest
// responders must still complete the retrieval.
func TestRespFloodKeepsOneRootPerResponder(t *testing.T) {
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 1, Counter: 1},
		Requests: []types.Request{{ClientID: 1, Seq: 1, Payload: []byte("retrieved")}},
	}
	digest := crypto.HashDatablock(db)
	n := newFloodTestNode(t, 0)
	n.noteMissing(digest, 1)

	const liar = types.ReplicaID(3)
	leaves := [][]byte{[]byte("a"), []byte("b"), []byte("c"), nil}
	for i := 0; i < 20_000; i++ {
		leaves[liar] = binary.BigEndian.AppendUint64(nil, uint64(i))
		tree, err := merkle.New(leaves)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := tree.Prove(int(liar))
		if err != nil {
			t.Fatal(err)
		}
		n.Deliver(0, liar, &RespMsg{
			Digest: digest, Root: tree.Root(), Chunk: leaves[liar],
			Index: int(liar), Proof: proof, DataLen: 64,
		}, transport.Discard)
		if roots := len(n.missing[digest].chunks); roots > 1 {
			t.Fatalf("after %d responses the liar has %d roots on record, want 1", i+1, roots)
		}
	}

	for _, id := range []types.ReplicaID{1, 2} {
		holder := newFloodTestNode(t, id)
		resp, err := holder.buildResponse(digest, &dbEntry{body: db})
		if err != nil {
			t.Fatal(err)
		}
		n.Deliver(0, id, resp, transport.Discard)
	}
	if _, held := n.Datablock(digest); !held {
		t.Fatal("retrieval with f lying responders did not complete")
	}
	if _, still := n.missing[digest]; still {
		t.Fatal("retrieval state outlived the retrieved datablock")
	}
}

// TestRespWrongDataLenUnderHonestRoot: a lying responder that answers first
// with its true chunk under the honest Merkle root but a wrong DataLen must
// not shut the honest responses under that root out; the f+1 honest
// responders still complete the retrieval.
func TestRespWrongDataLenUnderHonestRoot(t *testing.T) {
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 1, Counter: 1},
		Requests: []types.Request{{ClientID: 1, Seq: 1, Payload: []byte("retrieved")}},
	}
	digest := crypto.HashDatablock(db)
	n := newFloodTestNode(t, 0)
	n.noteMissing(digest, 1)

	respFrom := func(id types.ReplicaID) *RespMsg {
		resp, err := newFloodTestNode(t, id).buildResponse(digest, &dbEntry{body: db})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const liar = types.ReplicaID(3)
	lie := *respFrom(liar)
	lie.DataLen++
	n.Deliver(0, liar, &lie, transport.Discard)

	for _, id := range []types.ReplicaID{1, 2} {
		n.Deliver(0, id, respFrom(id), transport.Discard)
	}
	if _, held := n.Datablock(digest); !held {
		t.Fatal("a wrong DataLen under the honest root blocked the honest responders")
	}
}

// TestProofFloodIsBounded: a proof that arrives before its block is buffered
// under the block's serial number, for the current view and from its leader
// only. A Byzantine replica sending 50 000 proofs under one future (view, seq)
// must leave nothing behind, and a Byzantine leader at most one proof per
// round.
func TestProofFloodIsBounded(t *testing.T) {
	n := newFloodTestNode(t, 0)
	buffered := func() int {
		total := 0
		for _, proofs := range n.cur.earlyProofs {
			total += len(proofs)
		}
		return total
	}
	const flood = 50_000

	future := types.BlockID{View: 2, Seq: 1}
	flooder := types.LeaderOf(future.View, 4) + 1
	for i := 0; i < flood; i++ {
		n.Deliver(0, flooder, &ProofMsg{Block: future, Round: 2, Digest: numberedHash(i)}, transport.Discard)
	}
	if got := buffered(); got != 0 {
		t.Fatalf("%d proofs buffered from a replica that does not lead view %d, want none", got, future.View)
	}

	early := types.BlockID{View: 1, Seq: 9}
	leader := types.LeaderOf(early.View, 4)
	for i := 0; i < flood; i++ {
		n.Deliver(0, leader, &ProofMsg{Block: early, Round: 1 + i%2, Digest: numberedHash(i)}, transport.Discard)
	}
	if got := buffered(); got != 2 {
		t.Fatalf("%d proofs buffered for one block, want one per round", got)
	}
}

// TestTimeoutFloodIsBounded: one Byzantine replica signing 20 000 timeout
// votes, each for a view of its own that nobody will reach, must leave no
// more than its budget of them behind — and entering a view must release
// what that view passes.
func TestTimeoutFloodIsBounded(t *testing.T) {
	n := newFloodTestNode(t, 0)
	const flooder = types.ReplicaID(3)
	for i := 0; i < 20_000; i++ {
		v := types.View(2 + i)
		share, err := n.suite.Sign(flooder, timeoutDigest(v))
		if err != nil {
			t.Fatal(err)
		}
		n.Deliver(0, flooder, &TimeoutMsg{View: v, Share: share}, transport.Discard)
		if len(n.timeoutVotes) > maxViewsAhead {
			t.Fatalf("after %d timeout votes from one replica %d views are tracked, want at most %d", i+1, len(n.timeoutVotes), maxViewsAhead)
		}
	}
	if n.InViewChange() {
		t.Fatal("one replica's timeout votes moved this one out of its view")
	}
	// Its newest votes are the ones kept: they are what an honest sender
	// far up its escalation ladder needs counted.
	if _, kept := n.timeoutVotes[types.View(20_001)][flooder]; !kept {
		t.Fatal("the sender's newest timeout vote was shed")
	}

	n.enterNewView(&NewViewMsg{NewView: 20_001}, transport.Discard)
	if len(n.timeoutVotes) != 1 {
		t.Fatalf("%d views of timeout votes survive entering view 20001, want the one vote on leaving it", len(n.timeoutVotes))
	}
}

// TestViewChangeFloodIsBounded: the same replica sending 20 000 signed
// view-change messages, each for another future view this replica would lead,
// must leave no more than its budget of them behind, and none once a view
// above them is entered.
func TestViewChangeFloodIsBounded(t *testing.T) {
	const self, flooder = types.ReplicaID(0), types.ReplicaID(3)
	n := newFloodTestNode(t, self)
	var last types.View
	for i := 0; i < 20_000; i++ {
		last = types.View(4 * (i + 1)) // led by replica 0 of 4
		m := &ViewChangeMsg{NewView: last, Sender: flooder}
		share, err := n.suite.Sign(flooder, viewChangeDigest(m))
		if err != nil {
			t.Fatal(err)
		}
		m.Share = share
		n.Deliver(0, flooder, m, transport.Discard)
		if len(n.vcMsgs) > maxViewsAhead {
			t.Fatalf("after %d view-change messages from one replica %d views are tracked, want at most %d", i+1, len(n.vcMsgs), maxViewsAhead)
		}
	}
	if _, kept := n.vcMsgs[last][flooder]; !kept {
		t.Fatal("the sender's newest view-change message was shed")
	}

	n.enterNewView(&NewViewMsg{NewView: last + 1}, transport.Discard)
	if len(n.vcMsgs) != 0 {
		t.Fatalf("%d views of view-change messages survive entering a view above them", len(n.vcMsgs))
	}
}
