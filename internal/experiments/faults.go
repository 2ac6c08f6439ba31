package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// RetrievalResult is one row of Fig. 12 / Table V: the cost of recovering
// one datablock of 2000 requests at scale n.
type RetrievalResult struct {
	N             int
	RecoverBytes  int64 // received by the recovering replica
	RespondBytes  int64 // sent by one responding replica
	RetrievalTime time.Duration
	LeaderRespond bool // true under the A1 ablation (leader-only serving)
}

// Fig12Rows is Fig. 12 and Table V: a victim replica misses one
// 2000-request datablock and recovers it from the committee.
type Fig12Rows []RetrievalResult

func fig12(s Sweep) (Fig12Rows, error) {
	return each(s, func(n, _ int) (RetrievalResult, error) { return retrievalOnce(n, false) })
}

func (rows Fig12Rows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   recover(KB)   respond(KB)   time(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d   %11.1f   %11.1f   %8.1f\n",
			r.N, float64(r.RecoverBytes)/1e3, float64(r.RespondBytes)/1e3,
			float64(r.RetrievalTime.Microseconds())/1e3)
	}
}

// A1Rows is ablation A1: at each n, the committee+erasure retrieval of
// Fig. 12 followed by the naive leader-serves-full-blocks alternative
// (§IV-A2's "intuitive solution").
type A1Rows []RetrievalResult

func ablationRetrieval(s Sweep) (A1Rows, error) {
	var out A1Rows
	for _, n := range s.N {
		for _, leaderOnly := range []bool{false, true} {
			r, err := retrievalOnce(n, leaderOnly)
			if err != nil {
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func (rows A1Rows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   committee-respond(KB)   leader-respond(KB)")
	for i := 0; i+1 < len(rows); i += 2 {
		fmt.Fprintf(w, "%4d   %21.1f   %18.1f\n",
			rows[i].N, float64(rows[i].RespondBytes)/1e3, float64(rows[i+1].RespondBytes)/1e3)
	}
}

// retrievalOnce has a victim miss one 2000-request datablock and recover
// it; leaderOnly runs the A1 ablation where only the leader serves (full
// copies).
func retrievalOnce(n int, leaderOnly bool) (RetrievalResult, error) {
	const dbRequests = 2000 // paper: a datablock of 2000 128-byte requests
	net := netConfig()
	net.TickInterval = 2 * time.Millisecond
	// No background saturation: the paper measures retrieving one
	// datablock as a controlled microbenchmark.
	c, err := leopardClusterDepth(n, dbRequests, 1, 0, net, func(cfg *leopard.Config) {
		cfg.LeaderRetrieval = leaderOnly
		cfg.RetrievalTimeout = 10 * time.Millisecond
		cfg.ViewChangeTimeout = time.Hour
	})
	if err != nil {
		return RetrievalResult{}, err
	}
	// The victim (replica 0) never receives the generator's datablocks
	// directly; leader of view 1 is replica 1, generator is replica 2.
	const victim, generator = types.ReplicaID(0), types.ReplicaID(2)
	c.Net.SetFilter(func(now time.Duration, from, to types.ReplicaID, msg transport.Message) bool {
		if _, isDB := msg.(*leopard.DatablockMsg); isDB && from == generator && to == victim {
			return false
		}
		return true
	})
	c.Start()
	c.SubmitN(generator, dbRequests)

	victimNode := leopardNodes(c)[victim]
	start := c.Net.Now()
	done := c.RunUntil(start+30*time.Second, 2*time.Millisecond, func() bool {
		return victimNode.Stats().Retrievals >= 1
	})
	if !done {
		return RetrievalResult{}, fmt.Errorf("retrieval did not complete")
	}
	elapsed := c.Net.Now() - start

	// Only received retrieval bytes count: the victim's queries are sent.
	recover := c.Net.Stats(victim).Received[transport.ClassRetrieval]
	// Responding cost: the maximum over responders (the paper reports the
	// per-replica responding cost; under A1 only the leader responds).
	var respond int64
	for i := 0; i < n; i++ {
		if s := c.Net.Stats(types.ReplicaID(i)).Sent[transport.ClassRetrieval]; s > respond {
			respond = s
		}
	}
	return RetrievalResult{
		N:             n,
		RecoverBytes:  recover,
		RespondBytes:  respond,
		RetrievalTime: elapsed,
		LeaderRespond: leaderOnly,
	}, nil
}

// ViewChangeResult is one row of Fig. 13.
type ViewChangeResult struct {
	N                int
	Time             time.Duration // trigger to completion at all honest replicas
	TotalBytes       int64         // all view-change-class traffic
	LeaderSent       int64         // new leader's sent bytes (all classes, during VC)
	LeaderReceived   int64
	PerReplicaSent   int64 // average non-leader sent bytes during VC
	PerReplicaRecved int64
}

// Fig13Rows is Fig. 13: view-change time and communication cost after
// crashing the leader mid-run.
type Fig13Rows []ViewChangeResult

func fig13(s Sweep) (Fig13Rows, error) { return each(s, viewChangeOnce) }

func (rows Fig13Rows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   time(ms)   total(B)   leader-sent(B)   leader-recv(B)   replica-sent(B)")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d   %8.1f   %8d   %14d   %14d   %15d\n",
			r.N, float64(r.Time.Microseconds())/1e3, r.TotalBytes,
			r.LeaderSent, r.LeaderReceived, r.PerReplicaSent)
	}
}

func viewChangeOnce(n, _ int) (ViewChangeResult, error) {
	dbSize, bftSize, _ := TableII(n)
	if n <= 16 {
		dbSize, bftSize = 500, 10
	}
	vcTimeout := 150*time.Millisecond + time.Duration(n)*5*time.Millisecond
	net := netConfig()
	c, err := leopardCluster(n, dbSize, bftSize, net, func(cfg *leopard.Config) {
		cfg.ViewChangeTimeout = vcTimeout
		// Keep the number of outstanding BFTblocks small, as the paper
		// argues Leopard's large per-block request counts allow; this
		// bounds the O(n) view-change message sizes.
		cfg.MaxParallel = 16
	})
	if err != nil {
		return ViewChangeResult{}, err
	}
	c.Start()
	// Let the system process load so outstanding BFTblocks exist when the
	// leader dies (the paper triggers the view change at a random point).
	c.Net.Run(700 * time.Millisecond)

	oldLeader := c.Replicas[0].Leader()
	newLeader := types.LeaderOf(2, n)
	c.Net.ResetStats()
	crashAt := c.Net.Now()
	c.Net.Crash(oldLeader)
	vcTime, err := awaitViewChange(c, oldLeader, crashAt+60*time.Second)
	if err != nil {
		return ViewChangeResult{}, err
	}

	var total, leaderSent, leaderRecv, repSent, repRecv int64
	replicas := 0
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		st := c.Net.Stats(id)
		sent := st.Sent[transport.ClassViewChange]
		recv := st.Received[transport.ClassViewChange]
		total += sent
		switch id {
		case newLeader:
			leaderSent, leaderRecv = sent, recv
		case oldLeader:
			// excluded: it is dead
		default:
			repSent += sent
			repRecv += recv
			replicas++
		}
	}
	if replicas > 0 {
		repSent /= int64(replicas)
		repRecv /= int64(replicas)
	}
	return ViewChangeResult{
		N:                n,
		Time:             vcTime,
		TotalBytes:       total,
		LeaderSent:       leaderSent,
		LeaderReceived:   leaderRecv,
		PerReplicaSent:   repSent,
		PerReplicaRecved: repRecv,
	}, nil
}

// awaitViewChange runs c until a replica other than the crashed leader old
// enters a view change, then until every such replica has reached view 2,
// both by deadline, and returns the time from trigger to completion: the
// paper measures from the trigger, not from the crash.
func awaitViewChange(c *harness.Cluster, old types.ReplicaID, deadline time.Duration) (time.Duration, error) {
	nodes := leopardNodes(c)
	triggered := func() bool {
		for _, node := range nodes {
			if node.ID() != old && node.InViewChange() {
				return true
			}
		}
		return false
	}
	if !c.RunUntil(deadline, time.Millisecond, triggered) {
		return 0, fmt.Errorf("view change never triggered")
	}
	triggerAt := c.Net.Now()
	allMoved := func() bool {
		for _, node := range nodes {
			if node.ID() != old && node.View() < 2 {
				return false
			}
		}
		return true
	}
	if !c.RunUntil(deadline, time.Millisecond, allMoved) {
		return 0, fmt.Errorf("view change did not complete")
	}
	return c.Net.Now() - triggerAt, nil
}

// LaneResult is one row of the lane-scheduling scenario: view-change
// convergence time while datablock dissemination saturates every link.
type LaneResult struct {
	N     int
	Laned time.Duration // convergence with control-lane priority
}

// LaneRows is the vclanes scenario: how long a view change takes to
// converge while the bulk lane is saturated with datablock traffic on
// throttled links. With strict lane scheduling the timeout votes,
// view-change messages and new-view announcement bypass the queued datablock
// transfers instead of waiting behind megabytes of bulk (the recorded
// single-queue A/B at n=8: 431 ms against 2 ms). This is the simnet mirror
// of the TCP runtime's per-peer lane scheduler.
type LaneRows []LaneResult

func vcLanes(s Sweep) (LaneRows, error) {
	return each(s, func(n, _ int) (LaneResult, error) {
		laned, err := vcUnderBulkOnce(n)
		return LaneResult{N: n, Laned: laned}, err
	})
}

func (rows LaneRows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   laned(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d   %9.1f\n", r.N, float64(r.Laned.Microseconds())/1e3)
	}
}

func vcUnderBulkOnce(n int) (time.Duration, error) {
	// Throttled links so the injected datablock burst books every
	// egress/ingress pipe solid: 500-request datablocks are ~64 KB, ~5 ms
	// of wire time each at 100 Mbps, broadcast to n-1 peers.
	net := netConfig()
	net.EgressBps = 100e6
	net.IngressBps = 100e6
	net.ProcBps = 0
	net.TickInterval = 5 * time.Millisecond
	vcTimeout := 150 * time.Millisecond
	c, err := leopardClusterDepth(n, 500, 10, 0 /* no background injection */, net, func(cfg *leopard.Config) {
		cfg.ViewChangeTimeout = vcTimeout
		cfg.MaxParallel = 16
		// Let every replica push a deep burst of datablocks at once.
		cfg.MaxOutstandingDatablocks = 8
		cfg.RetrievalTimeout = time.Hour // no retrieval noise while queued
	})
	if err != nil {
		return 0, err
	}
	c.Start()
	c.Net.Run(100 * time.Millisecond) // idle warm-up

	// Crash the leader, then saturate the bulk lanes: every non-leader
	// packs and broadcasts 8 datablocks (~500 ms of egress backlog per
	// replica at n=16) that can never confirm. The stalled confirmations
	// trip the view-change timers while the pipes are full of bulk, so
	// the timeout votes, view-change messages and new-view announcement
	// must bypass the backlog.
	oldLeader := c.Replicas[0].Leader()
	crashAt := c.Net.Now()
	c.Net.Crash(oldLeader)
	for i := 0; i < n; i++ {
		if types.ReplicaID(i) != oldLeader {
			c.SubmitN(types.ReplicaID(i), 8*500)
		}
	}
	return awaitViewChange(c, oldLeader, crashAt+60*time.Second)
}

// AblationAlphaRow compares fixed vs adaptive datablock sizing (A3).
type AblationAlphaRow struct {
	N            int
	FixedTput    float64
	AdaptiveTput float64
}

// A3Rows is ablation A3: throughput with a fixed small datablock size
// versus α = λ(n-1) adaptive sizing, demonstrating the paper's recipe for a
// constant scaling factor.
type A3Rows []AblationAlphaRow

func ablationAlpha(s Sweep) (A3Rows, error) {
	const fixedDB = 200 // deliberately small: overhead grows with n
	return each(s, func(n, _ int) (AblationAlphaRow, error) {
		fixed, err := LeopardThroughput(n, fixedDB, 50)
		if err != nil {
			return AblationAlphaRow{}, err
		}
		// α = λ(n-1) with λ = 16 requests' worth of bytes per replica.
		adaptive, err := LeopardThroughput(n, max(16*(n-1), 50), 50)
		if err != nil {
			return AblationAlphaRow{}, err
		}
		return AblationAlphaRow{N: n, FixedTput: fixed.Throughput, AdaptiveTput: adaptive.Throughput}, nil
	})
}

func (rows A3Rows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   fixed-200(Kreq/s)   adaptive-16(n-1)(Kreq/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d   %17.1f   %24.1f\n", r.N, r.FixedTput/1e3, r.AdaptiveTput/1e3)
	}
}

// SelectiveAttackResult measures normal-case throughput against f faulty
// replicas running the selective attack (paper §VI-D setting), and the
// datablock retrievals it forces at honest replicas and at the attackers.
// MaxSkippedBlocks is the most blocks an honest replica jumped over by
// adopting a checkpoint, which replica 0's throughput does not show.
type SelectiveAttackResult struct {
	N                  int
	Throughput         float64
	HonestRetrievals   int64
	MaxSkippedBlocks   int64
	AttackerRetrievals int64
}

// AttackRows is the §VI-D selective attack: Leopard with f
// selective-attacking replicas; the throughput should remain positive
// thanks to the ready round + retrieval.
type AttackRows []SelectiveAttackResult

func selectiveAttack(s Sweep) (AttackRows, error) { return each(s, attackOnce) }

func (rows AttackRows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   throughput(Kreq/s)   honest-retrievals   max-skipped-blocks   attacker-retrievals")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d   %18.1f   %17d   %18d   %19d\n", r.N, r.Throughput/1e3, r.HonestRetrievals, r.MaxSkippedBlocks, r.AttackerRetrievals)
	}
}

func attackOnce(n, _ int) (SelectiveAttackResult, error) {
	dbSize, bftSize, _ := TableII(n)
	if n <= 16 {
		dbSize, bftSize = 500, 10
	}
	c, err := leopardCluster(n, dbSize, bftSize, netConfig(), func(cfg *leopard.Config) {
		cfg.RetrievalTimeout = 20 * time.Millisecond
	})
	if err != nil {
		return SelectiveAttackResult{}, err
	}
	q, _ := types.NewQuorumParams(n)
	// The f highest-id non-leader replicas attack. Each sends its datablocks
	// to a bare quorum — itself, the other attackers and the lowest-id
	// honest replicas, 2f+1 holders in all — so the remaining honest
	// replicas (f of them at n = 3f+1) must retrieve every one.
	leader := c.Replicas[0].Leader()
	var attackers []types.ReplicaID
	for i := n - 1; i >= 0 && len(attackers) < q.F; i-- {
		if id := types.ReplicaID(i); id != leader {
			attackers = append(attackers, id)
		}
	}
	targets := slices.Clone(attackers)
	for i := 0; len(targets) < q.Quorum(); i++ {
		if id := types.ReplicaID(i); !slices.Contains(attackers, id) {
			targets = append(targets, id)
		}
	}
	c.Net.SetFilter(harness.SelectiveAttack(attackers, targets))
	nodes := leopardNodes(c)
	c.Start()
	c.Warmup(warmup)
	res := SelectiveAttackResult{N: n, Throughput: c.MeasureFor(measure).Throughput}
	for i, node := range nodes {
		st := node.Stats()
		if slices.Contains(attackers, types.ReplicaID(i)) {
			res.AttackerRetrievals += st.Retrievals
		} else {
			res.HonestRetrievals += st.Retrievals
			res.MaxSkippedBlocks = max(res.MaxSkippedBlocks, st.SkippedBlocks)
		}
	}
	return res, nil
}
