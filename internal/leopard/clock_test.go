package leopard_test

import (
	"testing"
	"time"

	"leopard/internal/leopard"
	"leopard/internal/obs"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// Batching is clocked by confirmations: a full datablock or BFTblock leaves
// as soon as its window has room, a partial one only when the previous one
// has come back. These tests drive that rule tick by tick on the router,
// where a flush runs every message a tick caused to completion, so "the
// next tick" is exact. View 1's leader is replica 1; 0, 2 and 3 generate.

const step = 5 * time.Millisecond

// neverFull makes every batch a partial one.
func neverFull(c *leopard.Config) {
	c.DatablockSize = 1000
	c.BFTBlockSize = 100
}

// next runs one tick on every node and everything it causes.
func (r *router) next() { r.advance(step, step) }

// withhold parks every message match selects instead of delivering it;
// the returned release delivers them, in order, and stops parking.
func (r *router) withhold(match func(transport.Message) bool) (release func()) {
	var held []routedMsg
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if match(msg) {
			held = append(held, routedMsg{from: from, to: to, msg: msg})
			return true
		}
		return false
	}
	return func() {
		r.drop = nil
		r.queue = append(r.queue, held...)
		r.flush()
	}
}

func isProof(msg transport.Message) bool {
	_, ok := msg.(*leopard.ProofMsg)
	return ok
}

func wantConfirmed(t testing.TB, r *router, want int64) {
	t.Helper()
	for _, node := range r.nodes {
		if got := node.Stats().ConfirmedRequests; got != want {
			t.Fatalf("replica %d confirmed %d requests, want %d", node.ID(), got, want)
		}
	}
}

// TestClockIdleRequestLeavesAtNextTick: on an idle cluster one request,
// far below either batch size, is packed at its replica's next tick and
// proposed at the leader's next tick after the ready quorum — two ticks to
// confirmation, and no timer anywhere to wait for.
func TestClockIdleRequestLeavesAtNextTick(t *testing.T) {
	r := newRouter(t, 4, neverFull)
	r.now += 3 * time.Millisecond // between two ticks
	r.submit(2, 1, 0)

	r.next()
	if st := r.nodes[2].Stats(); st.DatablocksMade != 1 || st.PartialDatablocks != 1 || st.DatablockRequests != 1 {
		t.Fatalf("first tick after the request: %d datablocks (%d partial, %d requests), want one partial of one",
			st.DatablocksMade, st.PartialDatablocks, st.DatablockRequests)
	}
	wantConfirmed(t, r, 0)

	r.next()
	if st := r.nodes[1].Stats(); st.ProposedBlocks != 1 || st.PartialBlocks != 1 || st.ProposedLinks != 1 {
		t.Fatalf("second tick: leader proposed %d blocks (%d partial, %d links), want one partial of one link",
			st.ProposedBlocks, st.PartialBlocks, st.ProposedLinks)
	}
	wantConfirmed(t, r, 1)
	if r.nodes[2].OwnOutstanding() != 0 {
		t.Fatal("the confirmation did not release the generator")
	}

	// The same counts are what /metrics serves: leopard-node binds Stats
	// into the registry field by field.
	reg := obs.NewRegistry()
	reg.SetStruct("leopard", r.nodes[2].Stats())
	reg.SetStruct("leader", r.nodes[1].Stats())
	snap := reg.Snapshot()
	for _, name := range []string{
		"leopard_datablocks_made", "leopard_partial_datablocks", "leopard_datablock_requests",
		"leader_proposed_blocks", "leader_partial_blocks", "leader_proposed_links",
	} {
		if snap[name] != 1.0 {
			t.Errorf("registry series %s = %v, want 1", name, snap[name])
		}
	}
}

// TestClockHoldsPartialsWhileInFlight: while a partial datablock of its own
// is unconfirmed a generator packs nothing, while a partial block of its
// own is unconfirmed the leader proposes nothing, and what arrived in the
// meantime leaves as one batch at the tick after the confirmation.
func TestClockHoldsPartialsWhileInFlight(t *testing.T) {
	r := newRouter(t, 4, neverFull)
	release := r.withhold(isProof)

	r.submit(0, 1, 0)
	r.submit(2, 1, 0)
	r.next() // 0 and 2 pack
	r.submit(3, 1, 0)
	// The leader ticks before replica 3: it proposes the two links it has,
	// then 3 packs, so 3's datablock turns ready behind a block in flight.
	r.next()
	leader := r.nodes[1]
	if st := leader.Stats(); st.ProposedBlocks != 1 || st.ProposedLinks != 2 {
		t.Fatalf("leader proposed %d blocks with %d links, want 1 with 2", st.ProposedBlocks, st.ProposedLinks)
	}

	const k, perTick = 6, 2
	for i := 0; i < k; i++ {
		for _, g := range []types.ReplicaID{0, 2, 3} {
			r.submit(g, perTick, uint64(1+i*perTick))
		}
		if sent := r.tickAll(step); len(sent) != 0 {
			t.Fatalf("tick %d with everything in flight sent %d messages, first %T", i, len(sent), sent[0].Msg)
		}
	}
	for _, g := range []types.ReplicaID{0, 2, 3} {
		if st := r.nodes[g].Stats(); st.DatablocksMade != 1 || r.nodes[g].OwnOutstanding() != 1 || st.PendingRequests != k*perTick {
			t.Fatalf("generator %d: %d datablocks made, %d outstanding, %d pending; want 1, 1, %d",
				g, st.DatablocksMade, r.nodes[g].OwnOutstanding(), st.PendingRequests, k*perTick)
		}
	}
	wantConfirmed(t, r, 0)

	release() // block 1 confirms: 0 and 2 are released, 3 is still linked nowhere
	wantConfirmed(t, r, 2)
	r.tickAll(step)
	for _, g := range []types.ReplicaID{0, 2} {
		if st := r.nodes[g].Stats(); st.DatablocksMade != 2 || st.DatablockRequests != 1+k*perTick || st.PendingRequests != 0 {
			t.Fatalf("generator %d after the confirmation: %d datablocks, %d requests packed, %d pending; want everything in a second datablock",
				g, st.DatablocksMade, st.DatablockRequests, st.PendingRequests)
		}
	}
	if st := r.nodes[3].Stats(); st.DatablocksMade != 1 {
		t.Fatalf("generator 3 packed again (%d datablocks) while its first is unconfirmed", st.DatablocksMade)
	}
	if st := leader.Stats(); st.ProposedBlocks != 2 || st.ProposedLinks != 3 {
		t.Fatalf("leader after the confirmation: %d blocks, %d links, want the waiting link proposed", st.ProposedBlocks, st.ProposedLinks)
	}
	r.flush()
	r.advance(4*step, step)
	wantConfirmed(t, r, 3+3*k*perTick)
	if st := leader.Stats(); st.PartialBlocks != st.ProposedBlocks {
		t.Fatalf("%d of %d blocks partial, want all", st.PartialBlocks, st.ProposedBlocks)
	}
}

// TestClockFullBatchesIgnoreIt: a batch that reached its size does not wait
// for the clock — full datablocks pack up to the window while a partial one
// is outstanding, and τ ready links are proposed while a partial block is
// unconfirmed.
func TestClockFullBatchesIgnoreIt(t *testing.T) {
	const window = 4
	r := newRouter(t, 4, func(c *leopard.Config) {
		c.MaxOutstandingDatablocks = window // DatablockSize 10, BFTBlockSize 2
	})
	release := r.withhold(isProof)
	gen, leader := r.nodes[2], r.nodes[1]

	r.submit(2, 1, 0)
	r.next() // a partial datablock
	r.next() // a partial block

	r.submit(2, 45, 1)
	r.next()
	if st := gen.Stats(); st.DatablocksMade != window || st.PartialDatablocks != 1 || st.PendingRequests != 15 {
		t.Fatalf("generator: %d datablocks (%d partial), %d pending; want the window of %d filled with full ones and 15 left",
			st.DatablocksMade, st.PartialDatablocks, st.PendingRequests, window)
	}
	r.next()
	r.next()
	if st := leader.Stats(); st.ProposedBlocks != 2 || st.PartialBlocks != 1 || st.ProposedLinks != 3 {
		t.Fatalf("leader: %d blocks (%d partial), %d links; want the full block of 2 proposed past the partial one and the odd link held",
			st.ProposedBlocks, st.PartialBlocks, st.ProposedLinks)
	}
	wantConfirmed(t, r, 0)

	release()
	r.advance(8*step, step)
	wantConfirmed(t, r, 46)
}

// TestClockViewChangeResets: a view change wipes the proposer side — blocks
// of the old view that never confirmed do not hold the new view's clock,
// whose first tick with a ready queue proposes — and the generator side is
// released when the new view confirms the re-announced datablock.
func TestClockViewChangeResets(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ticks int // from the new view to the confirmation, at most
	}{
		{"fixed", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRouter(t, 4, func(c *leopard.Config) {
				neverFull(c)
				c.ViewChangeTimeout = 10 * step
			})
			// View 1 never gathers a vote.
			r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
				v, ok := msg.(*leopard.VoteMsg)
				return ok && v.Block.View == 1
			}
			gen := r.nodes[0]
			r.submit(0, 1, 0)
			r.advance(3*step, step)
			proposed := int64(0)
			for _, node := range r.nodes {
				proposed += node.Stats().ProposedBlocks
			}
			if proposed == 0 || gen.OwnOutstanding() != 1 {
				t.Fatalf("view 1: %d blocks proposed, generator holds %d; want the datablock proposed and unconfirmed", proposed, gen.OwnOutstanding())
			}
			r.submit(0, 2, 1) // waits behind the outstanding datablock
			inView2 := func() bool {
				for _, node := range r.nodes {
					if node.View() < 2 {
						return false
					}
				}
				return true
			}
			for i := 0; !inView2(); i++ {
				if i == 200 {
					t.Fatal("no view change")
				}
				r.next()
			}
			if gen.OwnOutstanding() != 1 || gen.Stats().DatablocksMade != 1 {
				t.Fatalf("entering view 2: generator holds %d, made %d; want its one datablock still outstanding",
					gen.OwnOutstanding(), gen.Stats().DatablocksMade)
			}
			for i := 0; i < tc.ticks && gen.Stats().ConfirmedRequests == 0; i++ {
				r.next()
			}
			wantConfirmed(t, r, 1)
			if gen.OwnOutstanding() != 0 {
				t.Fatal("the new view's confirmation did not release the generator")
			}
			r.next()
			if st := gen.Stats(); st.DatablocksMade != 2 || st.DatablockRequests != 3 {
				t.Fatalf("tick after the release: %d datablocks, %d requests packed, want the two waiting requests in a second one",
					st.DatablocksMade, st.DatablockRequests)
			}
			r.advance(3*step, step)
			wantConfirmed(t, r, 3)
		})
	}
}

// TestClockTickIdempotentAtOneInstant: a second Tick at the same instant,
// with no input in between, sends nothing and moves no counter. That is
// what lets the runtime tick often: a tick only acts on what changed since
// the last one.
func TestClockTickIdempotentAtOneInstant(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   types.ReplicaID
		// setup leaves the cluster in the case's state; first says what
		// the first tick at the next instant must have done.
		setup func(r *router)
		first func(st leopard.Stats) bool
	}{
		{"idle", 2, func(r *router) { r.next() }, func(st leopard.Stats) bool {
			return st.DatablocksMade == 0 && st.ProposedBlocks == 0
		}},
		{"generator with a partial datablock outstanding", 2, func(r *router) {
			r.withhold(isProof)
			r.submit(2, 1, 0)
			r.next() // a partial datablock, never confirmed
			r.submit(2, 25, 1)
		}, func(st leopard.Stats) bool {
			// Two full datablocks left past the partial one; the odd five
			// requests wait behind it.
			return st.DatablocksMade == 3 && st.PartialDatablocks == 1 && st.PendingRequests == 5
		}},
		{"leader with a ready queue and a block in flight", 1, func(r *router) {
			r.withhold(isProof)
			r.submit(2, 1, 0)
			r.next() // a partial datablock
			r.next() // a partial block, never confirmed
			r.submit(0, 1, 0)
			r.submit(3, 1, 0)
			r.submit(2, 10, 1)
			r.next() // three links turn ready behind the block in flight
		}, func(st leopard.Stats) bool {
			// A full block of two links left; the odd link waits.
			return st.ProposedBlocks == 2 && st.PartialBlocks == 1 && st.ProposedLinks == 3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRouter(t, 4, nil)
			tc.setup(r)
			node := r.nodes[tc.id]
			r.now += step
			sent := tick(node, r.now)
			before := node.Stats()
			if !tc.first(before) {
				t.Fatalf("first tick sent %d messages and left %+v", len(sent), before)
			}
			if again := tick(node, r.now); len(again) != 0 {
				t.Fatalf("second tick at the same instant sent %d messages, first %T", len(again), again[0].Msg)
			}
			if after := node.Stats(); after != before {
				t.Fatalf("second tick at the same instant moved the counters:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

// BenchmarkNodeTick measures one Tick of an idle n=16 replica, the leader
// and a follower, after one confirmed block: what the runtime pays every
// TickInterval when there is nothing to batch.
func BenchmarkNodeTick(b *testing.B) {
	const n = 16
	r := newRouter(b, n, nil)
	r.submit(0, 1, 0)
	r.advance(3*step, step)
	wantConfirmed(b, r, 1)
	for _, tc := range []struct {
		name string
		id   types.ReplicaID
	}{{"leader", 1}, {"follower", n - 1}} {
		b.Run(tc.name, func(b *testing.B) {
			node := r.nodes[tc.id]
			var sink transport.SliceSink
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r.now += 2 * time.Millisecond
				node.Tick(r.now, &sink)
			}
			b.StopTimer()
			if len(sink.Envelopes) != 0 {
				b.Fatalf("an idle replica sent %d messages from Tick", len(sink.Envelopes))
			}
		})
	}
}
