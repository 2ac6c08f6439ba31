package harness

import (
	"testing"
	"time"

	"leopard/internal/mempool"
	"leopard/internal/protocol"
	"leopard/internal/simnet"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// stubReplica admits every request and executes only when a test calls its
// executor, so latency samples land at exactly the virtual times chosen.
type stubReplica struct {
	id        types.ReplicaID
	exec      protocol.ExecuteFunc
	submitted []types.Request
}

func (r *stubReplica) ID() types.ReplicaID                                                       { return r.id }
func (r *stubReplica) Start(time.Duration, transport.Sink)                                       {}
func (r *stubReplica) Deliver(time.Duration, types.ReplicaID, transport.Message, transport.Sink) {}
func (r *stubReplica) Tick(time.Duration, transport.Sink)                                        {}
func (r *stubReplica) SetExecutor(fn protocol.ExecuteFunc)                                       { r.exec = fn }
func (r *stubReplica) PendingRequests() int                                                      { return 0 }
func (r *stubReplica) Leader() types.ReplicaID                                                   { return 0 }
func (r *stubReplica) SubmitSigned(_ time.Duration, req types.Request, _ []byte) mempool.Verdict {
	r.submitted = append(r.submitted, req)
	return mempool.Admitted
}

func stubCluster(t *testing.T, latencySample int) (*Cluster, []*stubReplica) {
	t.Helper()
	stubs := make([]*stubReplica, 4)
	c, err := NewCluster(Options{
		N:             len(stubs),
		Net:           simnet.DefaultConfig(),
		LatencySample: latencySample,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			stubs[id] = &stubReplica{id: id}
			return stubs[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	return c, stubs
}

// TestLatencySamples drives the cluster's in-flight map directly: a sampled
// request is timed from its submission to its execution at the replica it
// was submitted to, exactly once.
func TestLatencySamples(t *testing.T) {
	t.Run("one sample per sampled request", func(t *testing.T) {
		// Every second client is sampled: of the two requests, one counts.
		c, stubs := stubCluster(t, 2)
		c.SubmitN(1, 2)
		c.Net.Run(15 * time.Millisecond)
		owner := stubs[1]
		owner.exec(1, owner.submitted)
		if got := c.latency.Count(); got != 1 {
			t.Fatalf("samples = %d, want 1", got)
		}
		if got := c.latency.Mean(); got != 15*time.Millisecond {
			t.Errorf("latency = %v, want 15ms", got)
		}
		if len(c.inflight) != 0 {
			t.Errorf("%d requests still in flight after their ack", len(c.inflight))
		}
	})
	t.Run("repeated execution is no new ack", func(t *testing.T) {
		c, stubs := stubCluster(t, 1)
		c.SubmitN(1, 1)
		c.Net.Run(time.Millisecond)
		owner := stubs[1]
		owner.exec(1, owner.submitted)
		c.Net.Run(2 * time.Millisecond)
		owner.exec(2, owner.submitted)
		if got := c.latency.Count(); got != 1 {
			t.Fatalf("duplicate ack counted: samples = %d, want 1", got)
		}
		if got := c.latency.Mean(); got != time.Millisecond {
			t.Errorf("latency = %v, want the first ack's 1ms", got)
		}
	})
	t.Run("ack from a non-owner replica ignored", func(t *testing.T) {
		c, stubs := stubCluster(t, 1)
		c.SubmitN(1, 1)
		c.Net.Run(5 * time.Millisecond)
		stubs[2].exec(1, stubs[1].submitted)
		stubs[1].exec(1, []types.Request{{ClientID: 9999}}) // never submitted
		if got := c.latency.Count(); got != 0 {
			t.Fatalf("samples = %d before the owner executed, want 0", got)
		}
		c.Net.Run(8 * time.Millisecond)
		stubs[1].exec(1, stubs[1].submitted)
		if got := c.latency.Mean(); c.latency.Count() != 1 || got != 8*time.Millisecond {
			t.Errorf("samples = %d mean %v, want 1 of 8ms", c.latency.Count(), got)
		}
	})
	t.Run("nothing submitted before Warmup counted", func(t *testing.T) {
		c, stubs := stubCluster(t, 1)
		c.SubmitN(1, 1)
		c.Warmup(10 * time.Millisecond)
		c.Net.Run(20 * time.Millisecond)
		c.SubmitN(1, 1)
		c.Net.Run(30 * time.Millisecond)
		stubs[1].exec(1, stubs[1].submitted)
		if got := c.latency.Count(); got != 1 {
			t.Fatalf("samples = %d, want 1 (the warm-up request excluded)", got)
		}
		if got := c.latency.Mean(); got != 10*time.Millisecond {
			t.Errorf("latency = %v, want 10ms", got)
		}
	})
}
