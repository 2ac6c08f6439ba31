package leopard

import (
	"fmt"
	"runtime"
	"testing"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/transport"
	"leopard/internal/types"
)

const execSeed = "execute-test"

// newExecNode builds replica 2 of an n=4 cluster, started, with sink as
// its reply sink: ready for executeBlock on hand-built blocks.
func newExecNode(tb testing.TB, suite crypto.Suite, sink func(ReplyMsg)) *Node {
	tb.Helper()
	q, err := types.NewQuorumParams(4)
	if err != nil {
		tb.Fatal(err)
	}
	node, err := NewNode(Config{ID: 2, Quorum: q, Suite: suite})
	if err != nil {
		tb.Fatal(err)
	}
	node.SetReplySink(sink)
	node.Start(0, transport.Discard)
	return node
}

// execBlock builds the block at sn: one datablock per entry of sizes, that
// many requests of payload bytes in each, every request from its own client
// (numbered across the block) with seq = sn, so consecutive blocks extend
// each client's sequence. It also returns the number of requests.
func execBlock(sn types.SeqNum, payload int, sizes ...int) (*types.BFTblock, []*types.Datablock, int) {
	block := &types.BFTblock{View: 1, Seq: sn}
	var dbs []*types.Datablock
	clientID := uint64(0)
	for g, size := range sizes {
		db := &types.Datablock{Ref: types.DatablockRef{Generator: types.ReplicaID(g % 4), Counter: uint64(sn)}}
		for i := 0; i < size; i++ {
			db.Requests = append(db.Requests, types.Request{ClientID: clientID, Seq: uint64(sn), Payload: make([]byte, payload)})
			clientID++
		}
		dbs = append(dbs, db)
		block.Content = append(block.Content, crypto.HashDatablock(db))
	}
	return block, dbs, int(clientID)
}

// restamp turns a block built by execBlock into the one at sn, in place.
func restamp(sn types.SeqNum, block *types.BFTblock, dbs []*types.Datablock) {
	block.Seq = sn
	for _, db := range dbs {
		for i := range db.Requests {
			db.Requests[i].Seq = uint64(sn)
		}
	}
}

// TestExecuteBlockSignsOncePerBlock: whatever the number of requests, the
// replies of one executed block cost one Sign, and every reply still
// carries a share that verifies by itself — for its own request only — on
// a suite built apart from the replica's, as a client holds one.
func TestExecuteBlockSignsOncePerBlock(t *testing.T) {
	inner, err := crypto.NewEd25519Suite(4, []byte(execSeed))
	if err != nil {
		t.Fatal(err)
	}
	clientSide, err := crypto.NewEd25519Suite(4, []byte(execSeed))
	if err != nil {
		t.Fatal(err)
	}
	suite := &SignCounter{Suite: inner}
	var replies []ReplyMsg
	node := newExecNode(t, suite, func(m ReplyMsg) { replies = append(replies, m) })
	digestOf := func(m ReplyMsg) types.Hash { return client.ReplyDigest(m.Client, m.Seq, m.SN, m.Result) }

	sn := types.SeqNum(0)
	for _, sizes := range [][]int{{1}, {2}, {3, 4}, {1, 0, 7}, {100, 100, 100}, {}, {0}} {
		t.Run(fmt.Sprint(sizes), func(t *testing.T) {
			sn++
			block, dbs, requests := execBlock(sn, 16, sizes...)
			replies = replies[:0]
			before := suite.Signs
			node.executeBlock(sn, block, dbs)
			wantSigns := 1
			if requests == 0 {
				wantSigns = 0
			}
			if got := suite.Signs - before; got != wantSigns {
				t.Fatalf("%d requests: %d Sign calls, want %d", requests, got, wantSigns)
			}
			if len(replies) != requests {
				t.Fatalf("%d replies for %d requests", len(replies), requests)
			}
			for i, m := range replies {
				if m.Share.Signer != 2 || m.SN != sn || m.Client != uint64(i) || m.Seq != uint64(sn) {
					t.Fatalf("reply %d is %+v", i, m)
				}
				if err := clientSide.VerifyShare(digestOf(m), m.Share); err != nil {
					t.Fatalf("reply %d of %d: %v", i, requests, err)
				}
				// A replica cannot be made to vouch for what it did not
				// execute: the share serves neither another request of the
				// block nor this request with another result.
				if requests > 1 {
					other := replies[(i+1)%requests]
					if clientSide.VerifyShare(digestOf(other), m.Share) == nil {
						t.Fatalf("the share of reply %d verifies for reply %d", i, (i+1)%requests)
					}
				}
				altered := m
				altered.Result[0] ^= 1
				if clientSide.VerifyShare(digestOf(altered), m.Share) == nil {
					t.Fatalf("the share of reply %d verifies for another result", i)
				}
			}
			if requests == 0 {
				return
			}
			// A retransmission is answered from lastReply: no new signature,
			// and the cached batch share stands on its own.
			last := dbs[len(dbs)-1].Requests
			req := last[len(last)-1]
			replies = replies[:0]
			if v := node.SubmitSigned(0, req, nil); v.OK() {
				t.Fatalf("executed request re-admitted: %v", v)
			}
			if len(replies) != 1 || suite.Signs-before != 1 {
				t.Fatalf("retransmission: %d replies, %d Sign calls since the block began", len(replies), suite.Signs-before)
			}
			if m := replies[0]; m.Client != req.ClientID || m.Seq != req.Seq ||
				clientSide.VerifyShare(digestOf(m), m.Share) != nil {
				t.Fatalf("re-sent reply %+v does not verify for the retransmitted request", m)
			}
		})
	}
}

// n4-small's block, as the benchmark's budget reports it: three datablocks
// of a hundred 128-byte requests.
var n4SmallBlock = []int{100, 100, 100}

const n4SmallPayload = 128

// TestExecuteBlockAllocations: past the signature, a reply costs one
// allocation — its share, sized exactly — and a block a handful more (the
// digests, the tree, the shares); nothing else is allocated per request.
func TestExecuteBlockAllocations(t *testing.T) {
	suite, err := crypto.NewEd25519Suite(4, []byte(execSeed))
	if err != nil {
		t.Fatal(err)
	}
	node := newExecNode(t, suite, func(ReplyMsg) {})
	sn := types.SeqNum(1)
	block, dbs, requests := execBlock(sn, n4SmallPayload, n4SmallBlock...)
	node.executeBlock(sn, block, dbs) // first sight of these clients: maps grow
	perBlock := testing.AllocsPerRun(5, func() {
		sn++
		restamp(sn, block, dbs)
		node.executeBlock(sn, block, dbs)
	})
	if limit := float64(requests + 16); perBlock > limit {
		t.Fatalf("%v allocations for a block of %d requests, want at most %v", perBlock, requests, limit)
	}
}

// BenchmarkExecuteBlock measures the execute stage at the n4-small shape
// with the real signature suite and a reply sink that keeps nothing: what
// one replica pays per request between a block's confirmation and its
// replies leaving.
func BenchmarkExecuteBlock(b *testing.B) {
	suite, err := crypto.NewEd25519Suite(4, []byte(execSeed))
	if err != nil {
		b.Fatal(err)
	}
	node := newExecNode(b, suite, func(ReplyMsg) {})
	block, dbs, requests := execBlock(1, n4SmallPayload, n4SmallBlock...)
	node.executeBlock(1, block, dbs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := types.SeqNum(i + 2)
		restamp(sn, block, dbs)
		node.executeBlock(sn, block, dbs)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N * requests)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/request")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/request")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/request")
}
