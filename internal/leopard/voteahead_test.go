package leopard_test

import (
	"testing"
	"time"

	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// Views are 1-based, so the genesis leader is replica 1 (LeaderOf(1, 4)).
const genesisLeader = types.ReplicaID(1)

// voteAheadRestart drives the amnesia window at unit level: the leader
// proposes (persisting its embedded round-1 votes) but every returning
// vote is dropped, so nothing notarizes and the vote-ahead records sit
// above the executed frontier. The leader is then rebuilt over its
// surviving store and offered fresh — different — content for the same
// slots. It returns the rebuilt leader's reloaded-lock count and how many
// proposals it emitted in its second life.
func voteAheadRestart(t *testing.T, disable bool) (reloaded int64, reproposed int) {
	t.Helper()
	mutate := func(cfg *leopard.Config) {
		if disable {
			cfg.Store = harness.ForgetVotes(cfg.Store)
		}
	}
	r, stores := storedRouter(t, 4, mutate)
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		_, isVote := msg.(*leopard.VoteMsg)
		return isVote
	}
	r.submit(2, 40, 0)
	r.advance(100*time.Millisecond, 5*time.Millisecond)

	old := r.nodes[genesisLeader]
	if old.ExecutedTo() != 0 {
		t.Fatalf("votes were dropped yet execution reached %d", old.ExecutedTo())
	}
	if !disable && old.Stats().VotesLogged == 0 {
		t.Fatal("leader proposed without logging any vote-ahead records")
	}

	// Second life: resume full delivery, but count every proposal the
	// rebuilt leader sends. Fresh requests at a different replica produce
	// different datablocks, so any proposal for a previously-voted slot
	// would be round-0 equivocation.
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if from == genesisLeader {
			if _, ok := msg.(*leopard.BFTblockMsg); ok {
				reproposed++
			}
		}
		return false
	}
	node := rebuild(t, r, genesisLeader, stores.open(t, genesisLeader), mutate)
	r.flush()
	r.submit(3, 40, 5000)
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	return node.Stats().VotesReloaded, reproposed
}

// TestVoteAheadReloadPinsSlots: with the vote-ahead log enabled, a
// restarted leader reloads its round-1 locks and parks instead of
// re-proposing different content for slots it already voted on; with the
// log disabled the same schedule makes it re-propose — the equivocation
// the chaos amnesia test observes at the wire.
func TestVoteAheadReloadPinsSlots(t *testing.T) {
	reloaded, reproposed := voteAheadRestart(t, false)
	if reloaded == 0 {
		t.Error("vote-ahead log enabled: no locks reloaded at restart")
	}
	if reproposed != 0 {
		t.Errorf("vote-ahead log enabled: rebuilt leader re-proposed %d blocks over locked slots", reproposed)
	}

	reloaded, reproposed = voteAheadRestart(t, true)
	if reloaded != 0 {
		t.Errorf("vote-ahead log disabled: %d locks reloaded", reloaded)
	}
	if reproposed == 0 {
		t.Error("vote-ahead log disabled: rebuilt leader never re-proposed; amnesia window not exercised")
	}
}

// TestVotePersistFailureAbortsVote: when the very first vote persist fails,
// the vote must not leave the node — the fail-stop latches in the same
// event, before anything is signed into the wire. (Broadcasting a vote the
// store could not log would reopen the amnesia window on the next restart:
// a peer counted a vote this replica would not remember.)
func TestVotePersistFailureAbortsVote(t *testing.T) {
	const victim = types.ReplicaID(2) // not the leader: the cluster must survive it
	ffs := storage.NewFaultFS(storage.OsFS{})
	faulty, err := storage.Open(t.TempDir(), storage.Options{SegmentBytes: 4096, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	// Every fsync fails from the start, so the victim's first AppendVote —
	// durable before return — is the first thing to hit the bad medium.
	ffs.FailNextSyncs(1 << 20)

	stores := newMemStores(t, 4).logs
	stores[victim] = faulty
	r := newRouter(t, 4, func(cfg *leopard.Config) {
		cfg.MaxParallel = 8
		cfg.CheckpointEvery = 4
		cfg.Store = stores[cfg.ID]
	})
	votesSent := 0
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if from == victim {
			if _, ok := msg.(*leopard.VoteMsg); ok {
				votesSent++
			}
		}
		return false
	}
	r.submit(3, 40, 0)
	r.advance(200*time.Millisecond, 5*time.Millisecond)

	st := r.nodes[victim].Stats()
	if votesSent != 0 {
		t.Errorf("victim broadcast %d votes whose persist failed", votesSent)
	}
	if st.VotesLogged != 0 {
		t.Errorf("victim counted %d votes as logged on a failing store", st.VotesLogged)
	}
	if !st.WALFailed {
		t.Error("first failed vote persist did not latch the fail-stop")
	}
	if st.WALErrors == 0 {
		t.Error("no persistence failure recorded")
	}
	if r.nodes[0].ExecutedTo() == 0 {
		t.Error("cluster made no progress without the victim (quorum 3 of 4)")
	}
}

// TestRestartedVoterReadvertisesNotarization: a σ2 voter rebuilt over its
// surviving store must reload the persisted notarization certificates and
// keep advertising those blocks in its view-change messages. Without the
// durable notes, every crash-restart of a σ2 voter silently removes one
// advertiser from the quorum-intersection argument, and a confirmed block
// can eventually be redone as a dummy.
func TestRestartedVoterReadvertisesNotarization(t *testing.T) {
	// Replica 3: not the view-1 leader being silenced, and not the view-2
	// leader (replica 2) — the latter absorbs its own view-change message
	// locally, so it would never appear on the wire.
	const voter = types.ReplicaID(3)
	mutate := func(cfg *leopard.Config) {
		// Keep the watermark at 0 so nothing is checkpoint-pruned, and make
		// the view change triggerable by silencing the leader.
		cfg.CheckpointEvery = 1 << 20
		cfg.ViewChangeTimeout = 50 * time.Millisecond
	}
	r, stores := storedRouter(t, 4, mutate)
	r.submit(0, 20, 0)
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	exec := r.nodes[voter].ExecutedTo()
	if exec == 0 {
		t.Fatal("cluster made no progress in the healthy phase")
	}
	if r.nodes[voter].Stats().NotesLogged == 0 {
		t.Fatal("σ2 votes cast but no notarization certificates persisted")
	}

	node := rebuild(t, r, voter, stores.open(t, voter), mutate)
	r.flush()
	if node.Stats().NotesReloaded == 0 {
		t.Fatal("restart reloaded no notarization certificates")
	}

	// Silence the leader and submit fresh work; the stalled cluster runs a
	// view change, and the rebuilt voter's view-change message must still
	// advertise the blocks it endorsed in its previous life.
	advertised := make(map[types.SeqNum]bool)
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if from == genesisLeader {
			return true
		}
		if from == voter {
			if vc, ok := msg.(*leopard.ViewChangeMsg); ok {
				for _, nb := range vc.Blocks {
					advertised[nb.Block.Seq] = true
				}
			}
		}
		return false
	}
	r.submit(3, 10, 5000)
	r.advance(400*time.Millisecond, 5*time.Millisecond)
	if len(advertised) == 0 {
		t.Fatal("rebuilt voter sent no view-change advertisements")
	}
	for sn := types.SeqNum(1); sn <= exec; sn++ {
		if !advertised[sn] {
			t.Errorf("executed block %d not re-advertised after restart", sn)
		}
	}
}

// TestWALFailStop: a replica whose backing medium goes bad mid-run must
// latch the fail-stop state, stop voting, and leave the rest of the
// cluster to make progress without it.
func TestWALFailStop(t *testing.T) {
	const victim = types.ReplicaID(2) // not the leader: the cluster must survive it
	ffs := storage.NewFaultFS(storage.OsFS{})
	faulty, err := storage.Open(t.TempDir(), storage.Options{
		SegmentBytes:   4096,
		SyncEachAppend: true,
		FS:             ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()

	stores := newMemStores(t, 4).logs
	stores[victim] = faulty
	r := newRouter(t, 4, func(cfg *leopard.Config) {
		cfg.MaxParallel = 8
		cfg.CheckpointEvery = 4
		cfg.Store = stores[cfg.ID]
	})

	// Healthy phase: the faulty-store replica participates normally.
	r.submit(victim, 40, 0)
	r.submit(3, 40, 1000)
	r.advance(150*time.Millisecond, 5*time.Millisecond)
	if r.nodes[0].ExecutedTo() == 0 {
		t.Fatal("cluster made no progress in the healthy phase")
	}
	if r.nodes[victim].Stats().VotesLogged == 0 {
		t.Fatal("victim replica never voted in the healthy phase")
	}
	if r.nodes[victim].Stats().WALFailed {
		t.Fatal("fail-stop latched before any fault was injected")
	}

	// Every fsync from here on fails: the next persist attempt poisons the
	// store and the following tick latches the fail-stop.
	ffs.FailNextSyncs(1 << 20)
	r.submit(victim, 20, 40)
	r.submit(3, 20, 1040)
	r.advance(150*time.Millisecond, 5*time.Millisecond)
	if !r.nodes[victim].Stats().WALFailed {
		t.Fatal("sticky store error did not latch the fail-stop state")
	}

	// After the latch: no more votes from the victim, while the other
	// three replicas keep the pipeline moving (quorum 3 of 4 survives).
	votesAfter := 0
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if from == victim {
			if _, ok := msg.(*leopard.VoteMsg); ok {
				votesAfter++
			}
		}
		return false
	}
	before := r.nodes[0].ExecutedTo()
	r.submit(3, 40, 1060)
	r.advance(300*time.Millisecond, 5*time.Millisecond)
	if votesAfter != 0 {
		t.Errorf("fail-stopped replica sent %d votes after the latch", votesAfter)
	}
	if after := r.nodes[0].ExecutedTo(); after <= before {
		t.Errorf("cluster stalled after one replica fail-stopped: executed %d -> %d", before, after)
	}
}
