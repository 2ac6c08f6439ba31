package experiments

import (
	"fmt"
	"time"

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

// Fig12 reproduces Fig. 12 and Table V: a victim replica misses one
// 2000-request datablock and recovers it from the committee; leaderOnly
// runs the A1 ablation where only the leader serves (full copies).
func Fig12(scales []int, leaderOnly bool) ([]RetrievalResult, error) {
	if len(scales) == 0 {
		scales = []int{4, 7, 16, 32, 64, 128}
	}
	var out []RetrievalResult
	for _, n := range scales {
		r, err := retrievalOnce(n, leaderOnly)
		if err != nil {
			return nil, fmt.Errorf("fig12 n=%d: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

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

	victimNode, ok := c.Replicas[victim].(*leopard.Node)
	if !ok {
		return RetrievalResult{}, fmt.Errorf("replica 0 is not a leopard node")
	}
	start := c.Net.Now()
	done := c.RunUntil(start+30*time.Second, 2*time.Millisecond, func() bool {
		return victimNode.Stats().Retrievals >= 1
	})
	if !done {
		return RetrievalResult{}, fmt.Errorf("retrieval did not complete at n=%d", n)
	}
	elapsed := c.Net.Now() - start

	recover := c.Net.Stats(victim).Received[transport.ClassRetrieval]
	// Responding cost: the maximum over responders (the paper reports the
	// per-replica responding cost; under A1 only the leader responds).
	var respond int64
	for i := 0; i < n; i++ {
		if s := c.Net.Stats(types.ReplicaID(i)).Sent[transport.ClassRetrieval]; s > respond {
			respond = s
		}
	}
	// Subtract the victim's own query broadcast from its received count?
	// No: recover counts only received retrieval bytes, queries are sent.
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

// Fig13 reproduces Fig. 13: view-change time and communication cost after
// crashing the leader mid-run at scale n.
func Fig13(scales []int) ([]ViewChangeResult, error) {
	if len(scales) == 0 {
		scales = []int{4, 8, 13, 32, 64, 128}
	}
	var out []ViewChangeResult
	for _, n := range scales {
		r, err := viewChangeOnce(n)
		if err != nil {
			return nil, fmt.Errorf("fig13 n=%d: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func viewChangeOnce(n int) (ViewChangeResult, error) {
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

	nodes := make([]*leopard.Node, 0, n)
	for _, r := range c.Replicas {
		if node, ok := r.(*leopard.Node); ok {
			nodes = append(nodes, node)
		}
	}
	// The paper measures from the trigger, not from the crash: first wait
	// for any honest replica to enter the view change, then for all of
	// them to complete it.
	triggered := func() bool {
		for _, node := range nodes {
			if node.ID() != oldLeader && node.InViewChange() {
				return true
			}
		}
		return false
	}
	if ok := c.RunUntil(crashAt+60*time.Second, time.Millisecond, triggered); !ok {
		return ViewChangeResult{}, fmt.Errorf("view change never triggered at n=%d", n)
	}
	triggerAt := c.Net.Now()
	allMoved := func() bool {
		for _, node := range nodes {
			if node.ID() == oldLeader {
				continue
			}
			if node.View() < 2 {
				return false
			}
		}
		return true
	}
	if ok := c.RunUntil(crashAt+60*time.Second, time.Millisecond, allMoved); !ok {
		return ViewChangeResult{}, fmt.Errorf("view change did not complete at n=%d", n)
	}
	vcTime := c.Net.Now() - triggerAt

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

// LaneResult is one row of the lane-scheduling scenario: view-change
// convergence time while datablock dissemination saturates every link.
type LaneResult struct {
	N     int
	Laned time.Duration // convergence with control-lane priority
}

// ViewChangeUnderBulk measures how long a view change takes to converge
// while the bulk lane is saturated with datablock traffic on throttled
// links. With strict lane scheduling the timeout votes, view-change
// messages and new-view announcement bypass the queued datablock
// transfers instead of waiting behind megabytes of bulk (the recorded
// single-queue A/B at n=8: 431 ms against 2 ms). This is the simnet mirror
// of the TCP runtime's per-peer lane scheduler.
func ViewChangeUnderBulk(scales []int) ([]LaneResult, error) {
	if len(scales) == 0 {
		scales = []int{4, 8, 16, 32}
	}
	var out []LaneResult
	for _, n := range scales {
		laned, err := vcUnderBulkOnce(n)
		if err != nil {
			return nil, fmt.Errorf("vclanes n=%d: %w", n, err)
		}
		out = append(out, LaneResult{N: n, Laned: laned})
	}
	return out, nil
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

	nodes := make([]*leopard.Node, 0, n)
	for _, r := range c.Replicas {
		if node, ok := r.(*leopard.Node); ok {
			nodes = append(nodes, node)
		}
	}
	triggered := func() bool {
		for _, node := range nodes {
			if node.ID() != oldLeader && node.InViewChange() {
				return true
			}
		}
		return false
	}
	if ok := c.RunUntil(crashAt+60*time.Second, time.Millisecond, triggered); !ok {
		return 0, fmt.Errorf("view change never triggered")
	}
	triggerAt := c.Net.Now()
	allMoved := func() bool {
		for _, node := range nodes {
			if node.ID() == oldLeader {
				continue
			}
			if node.View() < 2 {
				return false
			}
		}
		return true
	}
	if ok := c.RunUntil(crashAt+60*time.Second, time.Millisecond, allMoved); !ok {
		return 0, fmt.Errorf("view change did not complete")
	}
	return c.Net.Now() - triggerAt, nil
}

// AblationAlphaRow compares fixed vs adaptive datablock sizing (A3).
type AblationAlphaRow struct {
	N            int
	FixedTput    float64
	AdaptiveTput float64
}

// AblationAdaptiveAlpha measures throughput with a fixed small datablock
// size versus α = λ(n-1) adaptive sizing, demonstrating the paper's recipe
// for a constant scaling factor.
func AblationAdaptiveAlpha(scales []int) ([]AblationAlphaRow, error) {
	if len(scales) == 0 {
		scales = []int{16, 64, 128, 256}
	}
	const fixedDB = 200 // deliberately small: overhead grows with n
	var out []AblationAlphaRow
	for _, n := range scales {
		fixed, err := LeopardThroughput(n, fixedDB, 50)
		if err != nil {
			return nil, err
		}
		// α = λ(n-1) with λ = 16 requests' worth of bytes per replica.
		adaptiveDB := 16 * (n - 1)
		if adaptiveDB < 50 {
			adaptiveDB = 50
		}
		adaptive, err := LeopardThroughput(n, adaptiveDB, 50)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationAlphaRow{
			N:            n,
			FixedTput:    fixed.Throughput,
			AdaptiveTput: adaptive.Throughput,
		})
	}
	return out, nil
}

// SelectiveAttackResult measures normal-case throughput against f faulty
// replicas running the selective attack (paper §VI-D setting).
type SelectiveAttackResult struct {
	N          int
	Throughput float64
	Retrievals int64
}

// SelectiveAttack runs Leopard with f selective-attacking replicas; the
// throughput should remain positive thanks to the ready round + retrieval.
func SelectiveAttack(n int) (SelectiveAttackResult, error) {
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
	// The highest-id f replicas are faulty: their datablocks reach only a
	// bare quorum (the first 2f+1 replicas).
	var targets []types.ReplicaID
	for i := 0; i < q.Quorum(); i++ {
		targets = append(targets, types.ReplicaID(i))
	}
	faulty := 0
	for i := n - 1; i >= 0 && faulty < q.F; i-- {
		if node, ok := c.Replicas[i].(*leopard.Node); ok && types.ReplicaID(i) != c.Replicas[0].Leader() {
			node.SetSelectiveAttack(targets)
			faulty++
		}
	}
	c.Start()
	c.Warmup(warmup)
	res := c.MeasureFor(measure)
	var retrievals int64
	for _, r := range c.Replicas {
		if node, ok := r.(*leopard.Node); ok {
			retrievals += node.Stats().Retrievals
		}
	}
	return SelectiveAttackResult{N: n, Throughput: res.Throughput, Retrievals: retrievals}, nil
}
