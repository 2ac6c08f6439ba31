package leopard_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// memStores is one storage.Log per replica on a shared in-memory
// filesystem, the store the simulations run.
type memStores struct {
	fs   *storage.MemFS
	opts storage.Options
	logs []*storage.Log
}

func newMemStores(t *testing.T, n int) *memStores {
	return openMemStores(t, n, storage.Options{})
}

// openMemStores opens n logs with opts, write-through, on a fresh MemFS.
func openMemStores(t *testing.T, n int, opts storage.Options) *memStores {
	m := &memStores{fs: storage.NewMemFS(), opts: opts, logs: make([]*storage.Log, n)}
	m.opts.FS, m.opts.SyncEachAppend = m.fs, true
	for i := range m.logs {
		m.open(t, types.ReplicaID(i))
	}
	return m
}

// open opens replica id's log. Called again for a replica, it closes the
// old log first and reopens the directory: the store a restarted process
// finds, recovered by Log.Open's segment scan.
func (m *memStores) open(t *testing.T, id types.ReplicaID) *storage.Log {
	t.Helper()
	if old := m.logs[id]; old != nil {
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
	}
	l, err := storage.Open(fmt.Sprintf("replica-%d", id), m.opts)
	if err != nil {
		t.Fatal(err)
	}
	m.logs[id] = l
	return l
}

// storedRouter builds a router whose every node persists to its own
// storage.Log on an in-memory filesystem, returning the stores for
// crash-restart tests.
func storedRouter(t *testing.T, n int, mutate func(*leopard.Config)) (*router, *memStores) {
	t.Helper()
	stores := newMemStores(t, n)
	r := newRouter(t, n, func(cfg *leopard.Config) {
		cfg.MaxParallel = 8
		cfg.CheckpointEvery = 4
		cfg.Store = stores.logs[cfg.ID]
		if mutate != nil {
			mutate(cfg)
		}
	})
	return r, stores
}

// rebuild constructs a fresh node for slot id over the given store — the
// picture after a process restart, given a store from memStores.open — and
// swaps it into the router.
func rebuild(t *testing.T, r *router, id types.ReplicaID, st storage.Store, mutate func(*leopard.Config)) *leopard.Node {
	t.Helper()
	n := len(r.nodes)
	q, err := types.NewQuorumParams(n)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(n, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := leopard.Config{
		ID:                id,
		Quorum:            q,
		Suite:             suite,
		DatablockSize:     10,
		BFTBlockSize:      2,
		ViewChangeTimeout: time.Hour,
		RetrievalTimeout:  10 * time.Millisecond,
		MaxParallel:       8,
		CheckpointEvery:   4,
		Store:             st,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	node, err := leopard.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.nodes[id] = node
	r.enqueue(id, start(node, r.now))
	return node
}

// TestRecoverReplaysWAL: a replica rebuilt over its surviving store must
// come back at the same executed height and execution chain hash, purely
// from local replay (checkpoint anchor + WAL tail), before any message
// reaches it.
func TestRecoverReplaysWAL(t *testing.T) {
	r, stores := storedRouter(t, 4, nil)
	r.submit(0, 60, 0)
	r.submit(2, 60, 1000)
	r.advance(100*time.Millisecond, 5*time.Millisecond)

	old := r.nodes[3]
	if old.ExecutedTo() == 0 {
		t.Fatal("no execution happened; test cannot exercise replay")
	}
	wantTo, wantState := old.ExecutedTo(), old.ExecutionState()
	if wantCp := old.Stats().LastCheckpointSeq; wantCp == 0 {
		t.Fatal("no stable checkpoint formed; widen the run")
	}

	// Rebuild over the reopened store, but do NOT deliver anything:
	// recovery must be purely local.
	var executed []types.SeqNum
	q, _ := types.NewQuorumParams(4)
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := leopard.NewNode(leopard.Config{
		ID: 3, Quorum: q, Suite: suite,
		DatablockSize: 10, BFTBlockSize: 2,
		ViewChangeTimeout: time.Hour,
		RetrievalTimeout:  10 * time.Millisecond,
		MaxParallel:       8, CheckpointEvery: 4,
		Store: stores.open(t, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	node.SetExecutor(func(sn types.SeqNum, reqs []types.Request) { executed = append(executed, sn) })
	node.Start(r.now, transport.Discard)

	if node.ExecutedTo() != wantTo {
		t.Fatalf("recovered to %d, want %d", node.ExecutedTo(), wantTo)
	}
	if node.ExecutionState() != wantState {
		t.Fatalf("execution chain hash diverged after recovery")
	}
	st := node.Stats()
	if st.BlocksReplayed == 0 && st.LastCheckpointSeq != wantTo {
		t.Fatalf("nothing replayed and anchor below height: %+v", st)
	}
	// Replay re-runs the executor for the tail above the anchor, in log
	// order (the callback fires once per datablock, so seqs repeat).
	for i := 1; i < len(executed); i++ {
		if executed[i] != executed[i-1] && executed[i] != executed[i-1]+1 {
			t.Fatalf("replay executed out of order: %v", executed)
		}
	}
}

// TestRecoverReanchorsStaleWALTail: a stable checkpoint can be durably
// saved ahead of the WAL tail (the watermark advances on a quorum proof
// while this replica's execution lags, then it crashes — or it crashes
// inside the group-commit window right after the save). Restart must
// re-anchor the log at the recovered frontier; without it every
// post-recovery Append fails non-contiguous and the replica silently
// never persists again.
func TestRecoverReanchorsStaleWALTail(t *testing.T) {
	st := newMemStores(t, 1).logs[0]
	for sn := types.SeqNum(1); sn <= 5; sn++ {
		if err := st.Append(&storage.BlockRecord{Seq: sn, Block: &types.BFTblock{Seq: sn}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SaveCheckpoint(storage.Checkpoint{Seq: 10, StateHash: types.Hash{7}, Proof: crypto.Proof{Sig: []byte("cp")}}); err != nil {
		t.Fatal(err)
	}

	q, err := types.NewQuorumParams(4)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := leopard.NewNode(leopard.Config{
		ID: 3, Quorum: q, Suite: suite,
		DatablockSize: 10, BFTBlockSize: 2,
		ViewChangeTimeout: time.Hour,
		RetrievalTimeout:  10 * time.Millisecond,
		MaxParallel:       8, CheckpointEvery: 4,
		Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(0, transport.Discard)

	if node.ExecutedTo() != 10 {
		t.Fatalf("recovered to %d, want the anchor 10", node.ExecutedTo())
	}
	if _, last := st.Bounds(); last != 10 {
		t.Fatalf("WAL tail at %d after recovery, want re-anchored at 10", last)
	}
	if err := st.Append(&storage.BlockRecord{Seq: 11, Block: &types.BFTblock{Seq: 11}}); err != nil {
		t.Fatalf("append at the frontier after recovery: %v", err)
	}
}

// TestStateTransferCatchup: a replica that restarts far behind — its
// executed range garbage-collected cluster-wide — must reach the cluster's
// height via the checkpoint anchor plus paged block transfer, casting no
// agreement votes for the recovered range.
func TestStateTransferCatchup(t *testing.T) {
	r, stores := storedRouter(t, 4, nil)

	// Cut replica 3 off and drive the rest well past several checkpoints.
	// 460 requests = 46 datablocks = 23 BFTblocks: the final height sits
	// above the last checkpoint boundary (20), so catch-up must combine the
	// anchor jump with block transfer for the range above the watermark.
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		return from == 3 || to == 3
	}
	r.submit(0, 230, 0)
	r.submit(2, 230, 1000)
	r.advance(200*time.Millisecond, 5*time.Millisecond)
	cluster := r.nodes[0].ExecutedTo()
	if cluster < 8 {
		t.Fatalf("cluster only reached %d; widen the run", cluster)
	}
	if lw := r.nodes[0].Stats().LastCheckpointSeq; lw == 0 {
		t.Fatal("no stable checkpoint formed")
	}

	// Restart replica 3 over its (empty — it was isolated from the start)
	// store, reconnected. It must sync via state transfer.
	var votes int
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if from == 3 {
			if v, ok := msg.(*leopard.VoteMsg); ok && v.Block.Seq <= cluster {
				votes++
			}
		}
		return false
	}
	node := rebuild(t, r, 3, stores.open(t, 3), nil)
	r.flush()
	r.advance(300*time.Millisecond, 5*time.Millisecond)

	if node.ExecutedTo() < cluster {
		t.Fatalf("restarted replica at %d, cluster at %d", node.ExecutedTo(), cluster)
	}
	st := node.Stats()
	if st.StateBlocksApplied == 0 {
		t.Fatalf("no blocks arrived via state transfer: %+v", st)
	}
	if votes != 0 {
		t.Fatalf("restarted replica cast %d votes for the transferred range", votes)
	}
	if node.ExecutionState() != r.nodes[0].ExecutionState() && node.ExecutedTo() == r.nodes[0].ExecutedTo() {
		t.Fatal("execution chain hash diverged from the cluster at equal height")
	}
}

// TestStateTransferServeCooldown: inside the cooldown window a requester
// is served again only when its height proves it consumed the previous
// page — anything else (repeats, partial or fabricated heights) is refused
// until the window lapses. That is the amplification bound of the serve
// path: per requester per window, at most one pass over the log.
func TestStateTransferServeCooldown(t *testing.T) {
	r, _ := storedRouter(t, 4, nil)
	r.submit(0, 60, 0)
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	server := r.nodes[0]
	if server.ExecutedTo() == 0 {
		t.Fatal("no execution")
	}

	served := func(have types.SeqNum) *leopard.StateRespMsg {
		outs := deliver(server, r.now, 3, &leopard.StateReqMsg{Have: have})
		var resp *leopard.StateRespMsg
		for _, env := range outs {
			if m, ok := env.Msg.(*leopard.StateRespMsg); ok {
				if resp != nil {
					t.Fatal("more than one response to a single request")
				}
				resp = m
			}
		}
		return resp
	}
	first := served(0)
	if first == nil {
		t.Fatal("first request not served")
	}
	if len(first.Blocks) == 0 {
		t.Fatal("first response carried no blocks; widen the run")
	}
	pageEnd := first.Blocks[len(first.Blocks)-1].Seq
	if got := served(0); got != nil {
		t.Fatal("repeat inside cooldown was served")
	}
	if pageEnd > 1 {
		// A height below the served page's end is not proof of consumption:
		// a Byzantine requester sweeping Have must not mint fresh serves.
		if got := served(pageEnd - 1); got != nil {
			t.Fatal("partial height inside cooldown was served")
		}
	}
	// Consuming the page is what earns the next one immediately.
	if got := served(pageEnd); got == nil {
		t.Fatal("consumed-page height refused (progress must not throttle)")
	}
	// After the cooldown lapses the original height is served again.
	r.now += 7 * 10 * time.Millisecond // > serveCooldown = 6×RetrievalTimeout
	if got := served(0); got == nil {
		t.Fatal("post-cooldown repeat refused")
	}
}

// TestCheckpointMapsPruned is the regression test for unbounded leader
// checkpoint maps: shares for seqs beyond the watermark window are
// rejected outright, and watermark advance shrinks the tracked set.
func TestCheckpointMapsPruned(t *testing.T) {
	r, _ := storedRouter(t, 4, nil)
	leader := r.nodes[1] // view-1 leader
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}

	// A Byzantine replica signs checkpoint shares for absurd future seqs;
	// validly signed, but far outside the watermark window.
	forge := func(from types.ReplicaID, seq types.SeqNum) {
		digest := leopard.CheckpointDigest(seq, types.Hash{0xbb})
		share, err := suite.Sign(from, digest)
		if err != nil {
			t.Fatal(err)
		}
		deliver(leader, r.now, from, &leopard.CheckpointMsg{Seq: seq, StateHash: types.Hash{0xbb}, Share: share})
	}
	for seq := types.SeqNum(1000); seq < 1064; seq++ {
		forge(3, seq)
	}
	if got := leader.Stats().CheckpointSeqsTracked; got != 0 {
		t.Fatalf("far-future checkpoint shares tracked: %d entries", got)
	}

	// Legitimate progress: maps fill within the window and shrink as the
	// watermark advances past each stable checkpoint.
	r.submit(0, 200, 0)
	r.submit(2, 200, 1000)
	r.advance(200*time.Millisecond, 5*time.Millisecond)
	if leader.Stats().LastCheckpointSeq == 0 {
		t.Fatal("no checkpoint formed")
	}
	if got, window := leader.Stats().CheckpointSeqsTracked, 8/4+1; got > window {
		t.Fatalf("checkpoint maps hold %d seqs after GC, want <= %d (window/interval)", got, window)
	}
}

// TestOwnDatablocksReleasedHoweverTheirBlockSettles: a live replica can see
// the blocks that linked its own datablocks settled without confirming them
// itself — they reach it by state transfer, or an anchor jump skips them
// unseen. Its window and its batching clock must be released all the same:
// a leftover entry holds back every partial datablock and keeps
// hasPendingWork true on an idle cluster, so the replica votes a timeout
// and enters a view change alone.
func TestOwnDatablocksReleasedHoweverTheirBlockSettles(t *testing.T) {
	const vcTimeout = time.Second
	for _, tc := range []struct {
		name     string
		others   int  // requests each of replicas 0 and 2 adds while 3 is cut off
		wantJump bool // 16 is the one checkpoint height
	}{
		{"state transfer", 10, false},
		{"anchor jump over unseen blocks", 180, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := storedRouter(t, 4, func(cfg *leopard.Config) {
				cfg.MaxParallel = 32
				cfg.CheckpointEvery = 16
				cfg.ViewChangeTimeout = vcTimeout
			})
			healed := r.nodes[3]
			// Replica 3 still sends but hears nothing: its datablocks are
			// linked, confirmed and executed by the other three.
			r.drop = func(from, to types.ReplicaID, msg transport.Message) bool { return to == 3 }
			r.submit(3, 30, 0)
			r.submit(0, tc.others, 0)
			r.submit(2, tc.others, 1000)
			r.advance(40*step, step)
			// One more after the rest, so that a block above any checkpoint
			// links a datablock of 3's as well.
			r.submit(3, 10, 30)
			r.advance(10*step, step)
			if got, want := r.nodes[0].Stats().ConfirmedRequests, int64(40+2*tc.others); got != want {
				t.Fatalf("cluster executed %d requests while 3 was cut off, want %d", got, want)
			}
			if healed.OwnOutstanding() != 4 || healed.ExecutedTo() != 0 {
				t.Fatalf("cut-off replica holds %d datablocks at height %d, want its 4 at 0", healed.OwnOutstanding(), healed.ExecutedTo())
			}

			// Heal. The next block reaches 3, which confirms it above a gap
			// and, once provably stuck, fetches what it missed.
			timeouts := 0
			r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
				if _, ok := msg.(*leopard.TimeoutMsg); ok && from == 3 {
					timeouts++
				}
				return false
			}
			r.submit(0, 10, uint64(tc.others))
			r.advance(60*step, step)
			cluster := r.nodes[0].ExecutedTo()
			st := healed.Stats()
			if healed.ExecutedTo() != cluster || st.StateBlocksApplied == 0 {
				t.Fatalf("healed replica at %d (%d blocks transferred), cluster at %d", healed.ExecutedTo(), st.StateBlocksApplied, cluster)
			}
			if jumped := st.ExecutedBlocks < int64(cluster); jumped != tc.wantJump {
				t.Fatalf("healed replica executed %d of %d blocks (checkpoint %d): jumped %v, want %v",
					st.ExecutedBlocks, cluster, st.LastCheckpointSeq, jumped, tc.wantJump)
			}
			if got, want := st.SkippedBlocks, int64(cluster)-st.ExecutedBlocks; got != want {
				t.Fatalf("healed replica counted %d skipped blocks, want %d (executed %d of %d)", got, want, st.ExecutedBlocks, cluster)
			}

			if got := healed.OwnOutstanding(); got != 0 {
				t.Fatalf("healed replica still holds %d of its own datablocks, all long executed", got)
			}
			if healed.HasPendingWork() {
				t.Fatal("healed replica reports pending work on an idle cluster")
			}
			r.advance(2*vcTimeout, step)
			if timeouts != 0 || healed.InViewChange() || healed.View() != 1 {
				t.Fatalf("healed replica sent %d timeout votes on an idle cluster (view %d, in view change %v)",
					timeouts, healed.View(), healed.InViewChange())
			}
			// And its clock runs: one request leaves at the next tick.
			made := healed.Stats().DatablocksMade
			r.submit(3, 1, 40)
			r.advance(2*step, step)
			if got := healed.Stats().DatablocksMade; got != made+1 {
				t.Fatalf("a request on the healed replica made %d datablocks, want 1", got-made)
			}
		})
	}
}

// TestRestartKeepsVotesAboveTruncatedCheckpoint: a replica that votes ahead
// of its execution keeps every vote and note above the stable checkpoint
// across a restart, even when that checkpoint truncated the segment the
// votes were logged in. Replica 3 stops executing (every σ2 proof and
// state response to it is dropped) but keeps voting both rounds on the
// slots the others run; the first checkpoint past its frontier truncates
// its log, and it restarts right there. Its vote locks must all come back.
func TestRestartKeepsVotesAboveTruncatedCheckpoint(t *testing.T) {
	const x = types.ReplicaID(3)
	stores := openMemStores(t, 4, storage.Options{SegmentBytes: 4096})
	r := newRouter(t, 4, func(cfg *leopard.Config) {
		cfg.MaxParallel = 8
		cfg.CheckpointEvery = 4
		cfg.Store = stores.logs[cfg.ID]
	})
	r.submit(0, 40, 0)
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	frontier := r.nodes[x].ExecutedTo()
	if frontier == 0 || r.nodes[x].Stats().LastCheckpointSeq >= frontier {
		t.Fatalf("healthy phase: executed %d, checkpoint %d", frontier, r.nodes[x].Stats().LastCheckpointSeq)
	}

	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if to != x {
			return false
		}
		switch m := msg.(type) {
		case *leopard.ProofMsg:
			return m.Round == 2
		case *leopard.StateRespMsg, *leopard.FullBlockMsg:
			return true
		}
		return false
	}
	r.submit(0, 200, 40)
	for r.nodes[x].Stats().LastCheckpointSeq <= frontier {
		if r.now > time.Second {
			t.Fatal("no checkpoint passed the stalled replica's frontier")
		}
		r.advance(time.Millisecond, time.Millisecond)
	}
	if names, err := stores.fs.ReadDir(fmt.Sprintf("replica-%d", x)); err != nil || !slices.Contains(names, "seg-00000002.wal") {
		t.Fatalf("the votes ahead never rolled a segment: %v %v", names, err)
	}
	if got := r.nodes[x].ExecutedTo(); got != frontier {
		t.Fatalf("stalled replica executed %d, want %d", got, frontier)
	}
	votes, notes := stores.logs[x].Votes(), stores.logs[x].Notes()

	node := rebuild(t, r, x, stores.open(t, x), nil)
	above := node.ExecutedTo()
	var wantVotes, wantNotes int64
	for _, v := range votes {
		if v.Seq > above {
			wantVotes++
		}
	}
	for _, nt := range notes {
		if nt.Block.Seq > above {
			wantNotes++
		}
	}
	if wantVotes == 0 || wantNotes == 0 {
		t.Fatalf("nothing voted above the restart frontier %d: %d votes, %d notes", above, wantVotes, wantNotes)
	}
	st := node.Stats()
	if st.VotesReloaded != wantVotes {
		t.Errorf("restart reloaded %d votes above %d, want %d", st.VotesReloaded, above, wantVotes)
	}
	if st.NotesReloaded != wantNotes {
		t.Errorf("restart reloaded %d notes above %d, want %d", st.NotesReloaded, above, wantNotes)
	}
}
