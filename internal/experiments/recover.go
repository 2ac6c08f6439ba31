package experiments

import (
	"fmt"
	"io"
	"time"

	"leopard/internal/leopard"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// RecoverResult is one row of the recover scenario: a replica is killed
// mid-run and restarted after the cluster has advanced past several stable
// checkpoints, and recovers through the durable subsystem (WAL replay +
// state transfer).
type RecoverResult struct {
	N int
	// CaughtUp reports whether the restarted replica reached the cluster's
	// executed height within the deadline.
	CaughtUp bool
	// CatchupTime is restart → executed height parity with the live
	// cluster.
	CatchupTime time.Duration
	// HeightAtRestart is the live cluster's executed height at the moment
	// of restart; HeightCaught is the height at catch-up.
	HeightAtRestart types.SeqNum
	HeightCaught    types.SeqNum
	// BlocksReplayed counts WAL records replayed locally at restart;
	// StateBlocks counts blocks fetched from peers via state transfer.
	BlocksReplayed int64
	StateBlocks    int64
	// Retrievals counts per-datablock retrievals at the restarted replica
	// after restart — state transfer must make this zero.
	Retrievals int64
	// ReVotes counts agreement votes the restarted replica cast for serial
	// numbers at or below HeightAtRestart: the transferred range must incur
	// zero re-votes.
	ReVotes int64

	// traffic is a per-replica sent/received byte signature of the whole
	// run, folded into RecoverRunDigest's determinism assertion.
	traffic string
	// states is every replica's ExecutionState at the end of the run.
	states []types.Hash
}

// recoverParams sizes one scenario run; the regression test shrinks it.
type recoverParams struct {
	dbRequests  int
	bftSize     int
	maxParallel int
	checkpoint  int
	loadEvery   time.Duration
	crashAt     time.Duration
	restartAt   time.Duration
	loadUntil   time.Duration // absolute; generators stop submitting here
	deadline    time.Duration // catch-up budget after restart
	seed        int64
	wire        bool // as chaosParams.wire
}

// defaultRecoverParams: the checkpoint interval is deliberately wide
// relative to block production so the restarted replica exercises both
// recovery paths — the anchor jump to the cluster's stable checkpoint AND
// paged block transfer for the executed range above it. (A tight interval
// degenerates to a pure jump: everything below the watermark is
// garbage-collected the moment it stabilizes.)
func defaultRecoverParams() recoverParams {
	return recoverParams{
		dbRequests:  200,
		bftSize:     4,
		maxParallel: 32,
		checkpoint:  16,
		loadEvery:   20 * time.Millisecond,
		crashAt:     1037 * time.Millisecond,
		restartAt:   3 * time.Second,
		loadUntil:   3200 * time.Millisecond,
		deadline:    30 * time.Second,
		seed:        1,
	}
}

// RecoverRows is the recover scenario: the crash-restart experiment at
// each scale.
type RecoverRows []RecoverResult

func recoverScenario(s Sweep) (RecoverRows, error) {
	return each(s, func(n, _ int) (RecoverResult, error) { return recoverOnce(n, defaultRecoverParams()) })
}

func (rows RecoverRows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   caught-up   catchup(ms)   height@restart   replayed   transferred   retrievals   re-votes")
	for _, r := range rows {
		caught := "yes"
		catchup := fmt.Sprintf("%11.1f", float64(r.CatchupTime.Microseconds())/1e3)
		if !r.CaughtUp {
			caught, catchup = "NO", fmt.Sprintf("%11s", "never")
		}
		fmt.Fprintf(w, "%4d   %9s   %s   %14d   %8d   %11d   %10d   %8d\n",
			r.N, caught, catchup, r.HeightAtRestart,
			r.BlocksReplayed, r.StateBlocks, r.Retrievals, r.ReVotes)
	}
}

// recoverOnce builds an n-replica cluster where every replica persists to a
// storage.Log on an in-memory filesystem, kills the last non-leader replica
// at crashAt, restarts it at restartAt over its reopened log, and measures
// catch-up.
func recoverOnce(n int, p recoverParams) (RecoverResult, error) {
	res := RecoverResult{N: n}
	if n < 4 {
		return res, fmt.Errorf("need n >= 4, got %d", n)
	}
	victim := types.ReplicaID(n - 1)

	net := netConfig()
	net.TickInterval = 5 * time.Millisecond
	net.Seed = p.seed
	if p.wire {
		net.Codec = leopard.WireCodec{}
	}

	// One storage.Log per replica on an in-memory filesystem. The victim's
	// bytes survive the crash, and its restart reopens them, exactly as an
	// on-disk WAL survives a process restart.
	stores := &simStores{fs: storage.NewMemFS(), logs: make([]*storage.Log, n)}
	for i := 0; i < n; i++ {
		if _, err := stores.open(types.ReplicaID(i)); err != nil {
			return res, err
		}
	}

	c, err := leopardClusterDepth(n, p.dbRequests, p.bftSize, 0, net, func(cfg *leopard.Config) {
		cfg.ViewChangeTimeout = time.Hour // the victim is not the leader
		cfg.RetrievalTimeout = 50 * time.Millisecond
		cfg.MaxParallel = p.maxParallel
		cfg.CheckpointEvery = p.checkpoint
		cfg.MaxOutstandingDatablocks = 2
		cfg.Store = stores.logs[cfg.ID]
	})
	if err != nil {
		return res, err
	}

	// Re-votes for the transferred range: count agreement votes the victim
	// sends for seqs at or below the cluster height captured at restart.
	var heightAtRestart types.SeqNum
	var restarted bool
	c.Net.SetFilter(func(now time.Duration, from, to types.ReplicaID, msg transport.Message) bool {
		if restarted && from == victim {
			if v, ok := msg.(*leopard.VoteMsg); ok && v.Block.Seq <= heightAtRestart {
				res.ReVotes++
			}
		}
		return true
	})

	c.Start()

	// Deterministic load: two non-leader, non-victim generators submit one
	// datablock's worth of requests every loadEvery until loadUntil.
	leader := c.Replicas[0].Leader()
	var generators []types.ReplicaID
	for i := 0; i < n && len(generators) < 2; i++ {
		id := types.ReplicaID(i)
		if id != leader && id != victim {
			generators = append(generators, id)
		}
	}
	scheduleLoad(c, generators, p.dbRequests, p.loadEvery, p.loadUntil)

	c.Net.ScheduleCall(p.crashAt, func(now time.Duration) {
		c.Net.Crash(victim)
	})
	c.Net.Run(p.restartAt)

	// The maximum over all replicas is the live cluster's height: the victim
	// can only raise it by not being behind, which is an error.
	heightAtRestart = maxExecuted(c)
	if heightAtRestart == 0 {
		return res, fmt.Errorf("cluster made no progress before restart")
	}
	if before := leopardNodes(c)[victim].ExecutedTo(); before >= heightAtRestart {
		return res, fmt.Errorf("victim not behind at restart: %d >= %d", before, heightAtRestart)
	}
	res.HeightAtRestart = heightAtRestart
	restarted = true
	if _, err := stores.open(victim); err != nil {
		return res, err
	}
	if err := c.Restart(victim); err != nil {
		return res, err
	}
	restartTime := c.Net.Now()
	node := leopardNodes(c)[victim]

	caught := func() bool { return node.ExecutedTo() >= maxExecuted(c) }
	res.CaughtUp = c.RunUntil(restartTime+p.deadline, 10*time.Millisecond, caught)
	st := node.Stats()
	res.BlocksReplayed = st.BlocksReplayed
	res.StateBlocks = st.StateBlocksApplied
	res.Retrievals = st.Retrievals
	res.HeightCaught = node.ExecutedTo()
	if res.CaughtUp {
		res.CatchupTime = c.Net.Now() - restartTime
	}
	res.traffic = trafficSignature(c)
	res.states = executionStates(c)
	return res, stores.verify()
}

// RecoverRunDigest renders one run — the victim's counters
// plus every replica's per-class bandwidth totals — as a deterministic
// string: two identically-seeded runs must produce byte-identical digests
// (TestRecoverScenarioDeterministic).
func RecoverRunDigest(n int, p recoverParams) (string, error) {
	r, err := recoverOnce(n, p)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("n=%d caught=%v t=%v h0=%d h1=%d replayed=%d transferred=%d retr=%d revotes=%d traffic=%s",
		r.N, r.CaughtUp, r.CatchupTime, r.HeightAtRestart, r.HeightCaught,
		r.BlocksReplayed, r.StateBlocks, r.Retrievals, r.ReVotes, r.traffic), nil
}
