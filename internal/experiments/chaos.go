package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/faultplan"
	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/protocol"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// ChaosResult is one fault schedule run under the cluster invariant
// checker: the plan's faults are injected into an otherwise loaded
// cluster, and the checker watches executions, votes, restarts and
// checkpoint certificates for safety/durability violations while a
// bounded-liveness probe asserts the cluster resumes after the schedule
// heals.
type ChaosResult struct {
	N    int
	Plan string
	// Height is the cluster's maximum executed height at the end of the
	// run; ViewChanges sums completed view changes across replicas.
	Height      types.SeqNum
	ViewChanges int64
	// VotesLogged/VotesReloaded sum the vote-ahead log counters: votes
	// persisted before sending, and vote locks restored across restarts.
	VotesLogged   int64
	VotesReloaded int64
	Violations    []string
	// PostMortem is the per-replica event-trace dump captured at the first
	// violation — empty on a clean run, or when tracing was off.
	PostMortem string `json:",omitempty"`

	// traffic is the per-replica sent/received byte signature folded into
	// ChaosRunDigest's determinism assertion.
	traffic string
	// reopened is simStores.reopened: what each restart's Log.Open read.
	reopened []storage.Stats
}

// chaosParams sizes one chaos run; the regression tests shrink it.
type chaosParams struct {
	dbRequests  int
	bftSize     int
	maxParallel int
	checkpoint  int
	loadEvery   time.Duration
	vct         time.Duration // ViewChangeTimeout under scheduled faults
	grace       time.Duration // bounded-liveness budget after the plan heals
	triggerSeq  types.SeqNum  // amnesia: crash the leader at this proposal
	seed        int64
}

func defaultChaosParams() chaosParams {
	return chaosParams{
		dbRequests:  200,
		bftSize:     4,
		maxParallel: 32,
		checkpoint:  8,
		loadEvery:   20 * time.Millisecond,
		vct:         300 * time.Millisecond,
		grace:       4 * time.Second,
		triggerSeq:  4,
		seed:        1,
	}
}

// chaosPlans is the schedule library swept by the chaos experiment. Every
// plan heals: the invariant checker requires executed height to resume
// advancing within the grace period after End().
func chaosPlans(n int, seed int64) []faultplan.Plan {
	ms := time.Millisecond
	leader := types.LeaderOf(1, n)
	f := (n - 1) / 3
	var nonLeaders []types.ReplicaID
	for i := 0; i < n; i++ {
		if id := types.ReplicaID(i); id != leader {
			nonLeaders = append(nonLeaders, id)
		}
	}
	// The minority is the last f non-leaders; the cluster keeps quorum.
	minority := append([]types.ReplicaID(nil), nonLeaders[len(nonLeaders)-f:]...)
	var majority []types.ReplicaID
	for i := 0; i < n; i++ {
		if id := types.ReplicaID(i); !slices.Contains(minority, id) {
			majority = append(majority, id)
		}
	}
	victim := minority[len(minority)-1]
	skewed := nonLeaders[0]
	return []faultplan.Plan{
		{
			Name: "partition-minority", Seed: seed,
			Partitions: []faultplan.Partition{
				{From: 300 * ms, Until: 900 * ms, A: minority, B: majority},
			},
		},
		{
			// The leader can send but not hear (asymmetric): proposals go
			// out, votes never come back, and the cluster must change view.
			Name: "partition-leader-oneway", Seed: seed + 1,
			Partitions: []faultplan.Partition{
				{From: 300 * ms, Until: 1200 * ms, A: nonLeaders, B: []types.ReplicaID{leader}, OneWay: true},
			},
		},
		{
			Name: "loss-control", Seed: seed + 2,
			Losses: []faultplan.Loss{
				{From: 200 * ms, Until: 800 * ms, Prob: 0.2, ControlOnly: true},
			},
		},
		{
			Name: "delay-skew", Seed: seed + 3,
			Delays: []faultplan.Delay{
				{Start: 300 * ms, Until: 900 * ms, From: -1, To: -1, Extra: 30 * ms, Jitter: 10 * ms},
			},
			Skews: []faultplan.Skew{
				{At: 250 * ms, Replica: skewed, Offset: 40 * ms},
				{At: 950 * ms, Replica: skewed, Offset: 0},
			},
		},
		{
			Name: "crash-restart", Seed: seed + 4,
			Crashes: []faultplan.Crash{
				{At: 400 * ms, Replica: victim, RestartAt: 1000 * ms},
			},
		},
	}
}

// chaosCluster builds a fully durable n-replica cluster wired into a fresh
// invariant checker: every replica persists to a storage.Log on a MemFS
// (each build, restarts included, opens it and registers it for the
// durability invariant) and reports executions through the checker's
// per-replica observer. When Tracing is set, the run is traced under label.
func chaosCluster(n int, p chaosParams, label string, mutate func(*leopard.Config)) (*harness.Cluster, *harness.InvariantChecker, *simStores, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, nil, nil, err
	}
	suite, err := crypto.NewSimSuite(n, []byte("chaos"))
	if err != nil {
		return nil, nil, nil, err
	}
	ic := harness.NewInvariantChecker(suite)
	stores := &simStores{fs: storage.NewMemFS(), logs: make([]*storage.Log, n)}
	ts := traceRun(label, n)
	net := netConfig()
	net.TickInterval = 5 * time.Millisecond
	net.Seed = p.seed
	c, err := harness.NewCluster(harness.Options{
		N:             n,
		Net:           net,
		PayloadSize:   PayloadSize,
		LatencySample: 16,
		Trace:         ts,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			st, err := stores.open(id)
			if err != nil {
				return nil, err
			}
			ic.RegisterStore(id, st)
			cfg := leopard.Config{
				ID:                       id,
				Quorum:                   q,
				Suite:                    suite,
				DatablockSize:            p.dbRequests,
				BFTBlockSize:             p.bftSize,
				MaxParallel:              p.maxParallel,
				CheckpointEvery:          p.checkpoint,
				MaxOutstandingDatablocks: 2,
				RetrievalTimeout:         50 * time.Millisecond,
				ViewChangeTimeout:        p.vct,
				// Cap escalation patience below the liveness grace budget:
				// with the default 16x cap, one escalation wait after the
				// plan heals could eat the whole grace window by itself.
				ViewChangeMaxTimeout: 8 * p.vct,
				SkipRequestDedup:     true,
				Store:                st,
				OnExecute:            ic.ExecutionObserver(id),
				// The Build closure runs again on Restart, re-wiring the
				// same per-slot tracer: one event history spans a replica's
				// crash/restart lives.
				Tracer: ts.Tracer(int(id)),
			}
			if mutate != nil {
				mutate(&cfg)
			}
			return leopard.NewNode(cfg)
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	c.AttachInvariants(ic)
	ic.AttachTrace(ts)
	return c, ic, stores, nil
}

// chaosGenerators picks f+1 load generators that are neither the leader
// nor scheduled to crash. The count matters for liveness under faults:
// only replicas holding pending work vote to leave a stalled view, and
// f+1 stalled voters are what pull the remaining (idle) replicas into
// the view change. Fewer generators and a leader-isolating partition
// would stall the cluster forever without any timeout quorum forming.
func chaosGenerators(n int, leader types.ReplicaID, plan faultplan.Plan) []types.ReplicaID {
	var crashed []types.ReplicaID
	for _, cr := range plan.Crashes {
		crashed = append(crashed, cr.Replica)
	}
	want := (n-1)/3 + 1 // f+1
	var out []types.ReplicaID
	for i := 0; i < n && len(out) < want; i++ {
		if id := types.ReplicaID(i); id != leader && !slices.Contains(crashed, id) {
			out = append(out, id)
		}
	}
	return out
}

// chaosFinish folds the checker verdict and per-replica counters into the
// result.
func chaosFinish(res *ChaosResult, c *harness.Cluster, ic *harness.InvariantChecker, stores *simStores) {
	ic.CheckCertificates(c.Replicas)
	res.Height = maxExecuted(c)
	for _, node := range leopardNodes(c) {
		st := node.Stats()
		res.ViewChanges += st.ViewChanges
		res.VotesLogged += st.VotesLogged
		res.VotesReloaded += st.VotesReloaded
	}
	res.traffic = trafficSignature(c)
	res.reopened = stores.reopened
	res.Violations = ic.Violations()
	res.PostMortem = ic.PostMortem()
}

// chaosOnce runs one scheduled plan under the invariant checker.
func chaosOnce(n int, plan faultplan.Plan, p chaosParams) (ChaosResult, error) {
	res := ChaosResult{N: n, Plan: plan.Name}
	c, ic, stores, err := chaosCluster(n, p, "chaos "+res.Plan, nil)
	if err != nil {
		return res, err
	}
	eng, err := c.InstallPlan(plan)
	if err != nil {
		return res, err
	}
	c.Start()

	leader := c.Replicas[0].Leader()
	end := plan.End()
	deadline := end + p.grace
	scheduleLoad(c, chaosGenerators(n, leader, plan), p.dbRequests, p.loadEvery, deadline)

	c.Net.Run(end)
	h0 := maxExecuted(c)
	if !c.RunUntil(deadline, 10*time.Millisecond, func() bool { return maxExecuted(c) > h0 }) {
		ic.Violate("liveness: executed height stuck at %d for %v after plan %q healed", h0, p.grace, plan.Name)
	}
	for _, e := range eng.Errs() {
		ic.Violate("schedule: %v", e)
	}
	chaosFinish(&res, c, ic, stores)
	return res, nil
}

// chaosAmnesia is the crash-between-vote-and-execute schedule: the leader
// is crashed the moment it broadcasts the proposal at triggerSeq — its
// σ1 vote cast but the block far from executed — and restarted in the same
// view shortly after. Without the vote-ahead log the restarted leader has
// no memory of the vote and re-proposes different content at the same
// (view, seq): equivocation the message tap detects. With it, the reloaded
// vote lock parks the slot until the view change re-agrees it.
func chaosAmnesia(n int, disableVAL bool, p chaosParams) (ChaosResult, error) {
	name := "amnesia-leader-crash"
	if disableVAL {
		name += "-noval"
	}
	res := ChaosResult{N: n, Plan: name}
	c, ic, stores, err := chaosCluster(n, p, "chaos "+name, func(cfg *leopard.Config) {
		// A patient view-change timer keeps the cluster in the leader's
		// view long enough for the restarted leader to equivocate before
		// anyone gives up on it, and a deep outstanding window keeps the
		// generators producing fresh datablocks while confirmations stall
		// — the restarted leader needs new content to re-propose.
		cfg.ViewChangeTimeout = time.Second
		cfg.MaxOutstandingDatablocks = 64
		if disableVAL {
			// The checker keeps the undecorated store registered.
			cfg.Store = harness.ForgetVotes(cfg.Store)
		}
	})
	if err != nil {
		return res, err
	}
	leader := c.Replicas[0].Leader()

	var triggered bool
	var heightAtCrash types.SeqNum
	c.Net.SetObserver(func(now time.Duration, from, to types.ReplicaID, msg transport.Message) {
		ic.ObserveMessage(now, from, to, msg)
		if triggered || from != leader {
			return
		}
		if bm, ok := msg.(*leopard.BFTblockMsg); ok && bm.Block != nil && bm.Block.Seq >= p.triggerSeq {
			triggered = true
			heightAtCrash = maxExecuted(c)
			c.Net.ScheduleCall(now, func(time.Duration) { c.Net.Crash(leader) })
			c.Net.ScheduleCall(now+100*time.Millisecond, func(time.Duration) {
				if err := c.Restart(leader); err != nil {
					ic.Violate("schedule: restart leader %d: %v", leader, err)
				}
			})
		}
	})
	c.Start()

	var generators []types.ReplicaID
	for i := 0; i < n && len(generators) < 2; i++ {
		if id := types.ReplicaID(i); id != leader {
			generators = append(generators, id)
		}
	}
	scheduleLoad(c, generators, p.dbRequests, p.loadEvery, 6*time.Second)

	if !c.RunUntil(4*time.Second, 10*time.Millisecond, func() bool { return triggered }) {
		return res, fmt.Errorf("amnesia: leader never proposed seq %d", p.triggerSeq)
	}
	// Bounded liveness: with the vote-ahead log the parked leader forces a
	// view change; without it the cluster refuses the equivocating
	// proposal and also changes view. Either way execution must resume.
	deadline := c.Net.Now() + 8*time.Second
	if !c.RunUntil(deadline, 10*time.Millisecond, func() bool { return maxExecuted(c) > heightAtCrash+4 }) {
		ic.Violate("liveness: executed height stuck near %d after leader crash-restart", heightAtCrash)
	}
	chaosFinish(&res, c, ic, stores)
	return res, nil
}

// ChaosRows is the chaos scenario: the schedule library plus the amnesia
// schedule (vote-ahead logging enabled) at each scale with the invariant
// checker on. A healthy tree returns zero violations in every row.
type ChaosRows []ChaosResult

func chaosScenario(scales []int, p chaosParams) (ChaosRows, error) {
	var out ChaosRows
	for _, n := range scales {
		if n < 4 {
			return nil, fmt.Errorf("need n >= 4, got %d", n)
		}
		for _, plan := range chaosPlans(n, p.seed) {
			r, err := chaosOnce(n, plan, p)
			if err != nil {
				return nil, fmt.Errorf("n=%d plan=%s: %w", n, plan.Name, err)
			}
			out = append(out, r)
		}
		r, err := chaosAmnesia(n, false, p)
		if err != nil {
			return nil, fmt.Errorf("n=%d plan=%s: %w", n, r.Plan, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func (rows ChaosRows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   plan                     height   view-changes   votes-logged   votes-reloaded   violations")
	for _, r := range rows {
		viol := "none"
		if len(r.Violations) > 0 {
			viol = fmt.Sprintf("%d (see below)", len(r.Violations))
		}
		fmt.Fprintf(w, "%4d   %-22s   %6d   %12d   %12d   %14d   %s\n",
			r.N, r.Plan, r.Height, r.ViewChanges, r.VotesLogged, r.VotesReloaded, viol)
	}
	for _, r := range rows {
		for _, v := range r.Violations {
			fmt.Fprintf(w, "VIOLATION n=%d plan=%s: %s\n", r.N, r.Plan, v)
		}
		if r.PostMortem != "" {
			fmt.Fprintf(w, "-- post-mortem n=%d plan=%s (event history at first violation) --\n%s", r.N, r.Plan, r.PostMortem)
		}
	}
}

// ChaosRunDigest renders the whole schedule library at one scale as a
// deterministic string: two identically-seeded runs must be byte-identical
// (TestChaosDeterministic).
func ChaosRunDigest(n int, p chaosParams) (string, error) {
	rows, err := chaosScenario([]int{n}, p)
	if err != nil {
		return "", err
	}
	var out string
	for i, r := range rows {
		if i > 0 {
			out += "; "
		}
		out += fmt.Sprintf("plan=%s h=%d vc=%d logged=%d reloaded=%d viol=%d traffic=%s",
			r.Plan, r.Height, r.ViewChanges, r.VotesLogged, r.VotesReloaded, len(r.Violations), r.traffic)
	}
	return out, nil
}
