// Package harness wires protocol replicas onto the simulated network,
// attaches workload generators, samples client latency, and runs measured
// experiments. Every entry of experiments.Catalog — the tables, figures and
// scenarios that cmd/leopard-sim and bench_test.go run — is built on this
// package.
package harness

import (
	"fmt"
	"time"

	"leopard/internal/obs"
	"leopard/internal/protocol"
	"leopard/internal/simnet"
	"leopard/internal/transport"
	"leopard/internal/types"
	"leopard/internal/workload"
)

// BuildFunc constructs the replica with the given id.
type BuildFunc func(id types.ReplicaID) (protocol.Replica, error)

// Options configures a cluster experiment.
type Options struct {
	N           int
	Net         simnet.Config
	Build       BuildFunc
	PayloadSize int
	// SaturationDepth keeps each non-leader replica's pending pool topped
	// up to this many requests (closed-loop saturation). Zero disables.
	SaturationDepth int
	// RequestRate submits this many requests per second, spread across
	// non-leader replicas (open loop). Zero disables.
	RequestRate float64
	// InjectEvery is the injection granularity (default 5ms).
	InjectEvery time.Duration
	// SubmitToLeader routes all requests to the current leader instead of
	// the non-leader replicas. HotStuff disseminates from the leader and
	// batches there, so its clients submit there.
	SubmitToLeader bool
	// LatencySample tracks client latency for one request in every
	// LatencySample (by client id). 1 (default) tracks everything; large
	// simulations use a sparse sample to stay within memory. Throughput is
	// always counted exactly, via executions observed at replica 0.
	LatencySample int
	// Trace, when set, attaches its per-replica tracers to the simnet's
	// flow-control emit sites (credit parks/evictions). Protocol-level
	// events are the Build closure's job: it must set the same tracer into
	// the replica's config (obs is clock-agnostic, so one tracer can carry
	// both), which also keeps one event history across Restart.
	Trace *obs.TraceSet
}

// Cluster is a running simulated deployment.
type Cluster struct {
	Net      *simnet.Network
	Replicas []protocol.Replica
	// gens holds one request generator per replica, each over a disjoint
	// client-ID range, so every client's seq stream reaches one replica
	// (see workload.Generator).
	gens []*workload.Generator
	// Invariants, when attached (AttachInvariants), asserts durability
	// around every Restart and observes traffic for equivocation.
	Invariants *InvariantChecker

	opts        Options
	injecting   bool
	ratePending float64
	executed    int64 // requests executed at the observer (replica 0)

	// inflight holds each sampled request from its submission until the
	// replica it was submitted to executes it (executorFor). Requests
	// submitted before measureFrom, the end of Warmup, add no latency sample.
	inflight    map[types.RequestID]submission
	latency     obs.LatencyRecorder
	measureFrom time.Duration
}

// submission is where and when a sampled request was submitted.
type submission struct {
	owner types.ReplicaID
	at    time.Duration
}

// NewCluster builds n replicas, wires them onto a simnet and registers
// their executors. Call Start, then Run*.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.N < 4 {
		return nil, fmt.Errorf("harness: need at least 4 replicas, got %d", opts.N)
	}
	if opts.Build == nil {
		return nil, fmt.Errorf("harness: missing Build function")
	}
	if opts.InjectEvery <= 0 {
		opts.InjectEvery = 5 * time.Millisecond
	}
	if opts.PayloadSize <= 0 {
		opts.PayloadSize = 128
	}
	if opts.LatencySample <= 0 {
		opts.LatencySample = 1
	}
	c := &Cluster{
		gens:     make([]*workload.Generator, opts.N),
		opts:     opts,
		inflight: make(map[types.RequestID]submission),
	}
	const clientsPerReplica = 64
	for i := range c.gens {
		c.gens[i] = workload.NewGeneratorAt(opts.PayloadSize, clientsPerReplica,
			uint64(i)*clientsPerReplica)
	}
	nodes := make([]transport.Node, opts.N)
	c.Replicas = make([]protocol.Replica, opts.N)
	for i := 0; i < opts.N; i++ {
		id := types.ReplicaID(i)
		r, err := opts.Build(id)
		if err != nil {
			return nil, fmt.Errorf("harness: build replica %d: %w", i, err)
		}
		r.SetExecutor(c.executorFor(id))
		c.Replicas[i] = r
		nodes[i] = r
	}
	net, err := simnet.New(opts.Net, nodes)
	if err != nil {
		return nil, err
	}
	c.Net = net
	if opts.Trace != nil {
		for i := 0; i < opts.N; i++ {
			net.SetTracer(types.ReplicaID(i), opts.Trace.Tracer(i))
		}
	}
	return c, nil
}

// sampled reports whether a request participates in latency tracking.
func (c *Cluster) sampled(id types.RequestID) bool {
	return id.Client%uint64(c.opts.LatencySample) == 0
}

// executorFor returns the execution callback for replica id. Replica 0 is
// the throughput observer (every replica executes the same log, so one
// counter suffices); a sampled request's latency is taken when the replica
// it was submitted to executes it (that replica answers the client, so its
// execution time is the client-visible confirmation).
func (c *Cluster) executorFor(id types.ReplicaID) protocol.ExecuteFunc {
	return func(sn types.SeqNum, reqs []types.Request) {
		if id == 0 {
			c.executed += int64(len(reqs))
		}
		now := c.Net.Now()
		for _, r := range reqs {
			rid := r.ID()
			if !c.sampled(rid) {
				continue
			}
			if sub, ok := c.inflight[rid]; ok && sub.owner == id {
				delete(c.inflight, rid)
				if sub.at >= c.measureFrom {
					c.latency.Add(now - sub.at)
				}
			}
		}
	}
}

// Start initializes the network and begins workload injection.
func (c *Cluster) Start() {
	c.Net.Start()
	if c.opts.SaturationDepth > 0 || c.opts.RequestRate > 0 {
		c.injecting = true
		c.scheduleInjection(c.Net.Now())
	}
}

// StopInjection halts workload injection (used to drain at the end).
func (c *Cluster) StopInjection() { c.injecting = false }

func (c *Cluster) scheduleInjection(at time.Duration) {
	c.Net.ScheduleCall(at, func(now time.Duration) {
		if !c.injecting {
			return
		}
		c.inject(now)
		c.scheduleInjection(now + c.opts.InjectEvery)
	})
}

// inject tops pools up (saturation) or feeds the configured rate.
func (c *Cluster) inject(now time.Duration) {
	leader := c.Replicas[0].Leader()
	targets := func(id types.ReplicaID) bool {
		if c.opts.SubmitToLeader {
			return id == leader
		}
		return id != leader
	}
	if c.opts.SaturationDepth > 0 {
		for i, r := range c.Replicas {
			if !targets(types.ReplicaID(i)) {
				continue
			}
			// Bound the top-up: if the pool rejects (rate limit, budget), a
			// bare pending<depth loop would spin forever at one virtual
			// instant. Unfilled depth is retried at the next injection tick.
			for attempts := 2 * c.opts.SaturationDepth; attempts > 0 &&
				r.PendingRequests() < c.opts.SaturationDepth; attempts-- {
				c.submit(now, types.ReplicaID(i), r)
			}
		}
	}
	if c.opts.RequestRate > 0 {
		c.ratePending += c.opts.RequestRate * c.opts.InjectEvery.Seconds()
		i := 0
		for c.ratePending >= 1 {
			id := types.ReplicaID(i % c.opts.N)
			i++
			if !targets(id) {
				continue
			}
			c.submit(now, id, c.Replicas[id])
			c.ratePending--
		}
	}
}

func (c *Cluster) submit(now time.Duration, id types.ReplicaID, r protocol.Replica) {
	req := c.gens[id].Next()
	if r.SubmitSigned(now, req, nil).OK() {
		if c.sampled(req.ID()) {
			c.inflight[req.ID()] = submission{owner: id, at: now}
		}
		// Account the client's bytes into the replica's ingress figures
		// (Table III's "Reqs. from Clients" row).
		c.Net.Stats(id).AddReceived(transport.ClassRequest, req.Size())
	}
}

// SubmitN submits exactly count fresh requests to replica id right now
// (bypassing the injection loop); used by controlled fault experiments.
func (c *Cluster) SubmitN(id types.ReplicaID, count int) {
	for i := 0; i < count; i++ {
		c.submit(c.Net.Now(), id, c.Replicas[id])
	}
}

// Restart rebuilds the replica at id with the cluster's Build function and
// swaps it into the network (simnet.Replace): the crash-restart-with-
// durable-state model. The Build closure decides what survives — a
// replica built over a log that reopens its predecessor's directory
// recovers its durable state; one built without a store restarts empty.
func (c *Cluster) Restart(id types.ReplicaID) error {
	return c.checkDurability(id, func() error {
		r, err := c.opts.Build(id)
		if err != nil {
			return fmt.Errorf("harness: rebuild replica %d: %w", id, err)
		}
		r.SetExecutor(c.executorFor(id))
		c.Replicas[id] = r
		return c.Net.Replace(id, r)
	})
}

// RunUntil advances the network in steps of the given granularity until
// cond returns true or the deadline passes; it reports whether cond held.
func (c *Cluster) RunUntil(deadline, step time.Duration, cond func() bool) bool {
	for c.Net.Now() < deadline {
		if cond() {
			return true
		}
		c.Net.Run(c.Net.Now() + step)
	}
	return cond()
}

// Warmup runs the cluster for d, then clears bandwidth counters and sets
// the latency cutoff, so measurements exclude ramp-up.
func (c *Cluster) Warmup(d time.Duration) {
	c.Net.Run(c.Net.Now() + d)
	c.Net.ResetStats()
	c.measureFrom = c.Net.Now()
}

// Result summarizes one measured run.
type Result struct {
	N          int
	Elapsed    time.Duration
	Confirmed  int64
	Throughput float64 // requests per second
	MeanLat    time.Duration
	P50Lat     time.Duration
	P99Lat     time.Duration
}

// MeasureFor runs the cluster for d and returns throughput/latency over
// exactly that window.
func (c *Cluster) MeasureFor(d time.Duration) Result {
	before := c.executed
	start := c.Net.Now()
	c.Net.Run(start + d)
	elapsed := c.Net.Now() - start
	res := Result{
		N:         c.opts.N,
		Elapsed:   elapsed,
		Confirmed: c.executed - before,
		MeanLat:   c.latency.Mean(),
		P50Lat:    c.latency.Percentile(50),
		P99Lat:    c.latency.Percentile(99),
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Confirmed) / elapsed.Seconds()
	}
	return res
}

// LeaderStats returns the bandwidth counters of the current leader.
func (c *Cluster) LeaderStats() *simnet.Bandwidth {
	return c.Net.Stats(c.Replicas[0].Leader())
}

// NonLeaderStats returns the bandwidth counters of the first non-leader.
func (c *Cluster) NonLeaderStats() *simnet.Bandwidth {
	leader := c.Replicas[0].Leader()
	for i := range c.Replicas {
		if types.ReplicaID(i) != leader {
			return c.Net.Stats(types.ReplicaID(i))
		}
	}
	return c.Net.Stats(0)
}
