package experiments

import (
	"fmt"
	"io"
	"time"

	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// StreamResult is one row of the stream scenario: a mixed ~1 MiB datablock
// fan-out with one slow receiver over the chunked credit-based bulk lane.
type StreamResult struct {
	N int
	// Converged is from first submission until every replica holds every
	// datablock (by any path: dissemination or retrieval).
	Converged time.Duration
	// PeakQueuedBytes is the largest bulk backlog any sender parked for
	// one peer set at once — the memory cost of not dropping.
	PeakQueuedBytes int64
	// BulkDrops counts datablock/retrieval frames lost at the bulk lane
	// (park-budget evictions).
	BulkDrops int64
	// Retrievals counts datablocks recovered via Alg. 3 across replicas —
	// the protocol-level repair work transport losses force.
	Retrievals int64
}

// streamParams sizes one scenario run. The CLI uses full ~1 MiB blocks;
// the regression test shrinks everything to stay fast.
type streamParams struct {
	dbRequests int     // requests per datablock (×128 B payload)
	blocksPer  int     // datablocks per generator
	linkBps    float64 // cluster link rate
	slowBps    float64 // the slow receiver's ingress rate
	window     int64   // credit window
	chunk      int     // stream chunk size
	parkBudget int64   // streaming park budget
	timeout    time.Duration
}

func defaultStreamParams() streamParams {
	return streamParams{
		dbRequests: 8192, // ~1.2 MiB datablocks at 128 B payload
		blocksPer:  4,
		linkBps:    200e6,
		slowBps:    20e6,
		window:     256 << 10,
		chunk:      64 << 10,
		parkBudget: 64 << 20,
		timeout:    120 * time.Second,
	}
}

// StreamRows is the stream scenario: the slow-receiver fan-out at each
// scale. Two generators broadcast blocksPer ~1 MiB datablocks each while the
// last replica's ingress runs at a tenth of the cluster's link rate. The
// backlog parks at the senders under credit flow control and drains at the
// receiver's pace — zero drops, zero retrievals.
type StreamRows []StreamResult

func streamScenario(s Sweep) (StreamRows, error) {
	return each(s, func(n, _ int) (StreamResult, error) { return streamOnce(n, defaultStreamParams()) })
}

func (rows StreamRows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   converge(ms)   peak-queued(KB)   drops   retrievals")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d   %12.1f   %15.1f   %5d   %10d\n",
			r.N, float64(r.Converged.Microseconds())/1e3,
			float64(r.PeakQueuedBytes)/1e3, r.BulkDrops, r.Retrievals)
	}
}

func streamOnce(n int, p streamParams) (StreamResult, error) {
	res := StreamResult{N: n}
	if n < 4 {
		return res, fmt.Errorf("need n >= 4, got %d", n)
	}
	slow := types.ReplicaID(n - 1)
	net := netConfig()
	net.EgressBps = p.linkBps
	net.IngressBps = p.linkBps
	net.ProcBps = 0 // a pure transport scenario: the wire is the bottleneck
	net.TickInterval = 5 * time.Millisecond
	net.IngressBpsPer = make([]float64, n)
	net.IngressBpsPer[slow] = p.slowBps
	net.Stream = transport.StreamConfig{
		ChunkSize:    p.chunk,
		CreditWindow: p.window,
		ParkBudget:   p.parkBudget,
	}

	// No background saturation: the scenario injects an exact burst.
	c, err := leopardClusterDepth(n, p.dbRequests, 10, 0, net, func(cfg *leopard.Config) {
		cfg.ViewChangeTimeout = time.Hour
		// Generous retrieval timer, as the paper's network-profiled
		// adaptive timer: parked-but-flowing datablocks must not trigger
		// spurious queries.
		cfg.RetrievalTimeout = 4 * time.Second
		cfg.MaxOutstandingDatablocks = 2
		// Keep every datablock pooled until the run ends so convergence
		// can be read off DatablocksHeld (no checkpoint GC mid-run).
		cfg.MaxParallel = 200
	})
	if err != nil {
		return res, err
	}
	c.Start()
	c.Net.Run(50 * time.Millisecond) // connect/tick warm-up

	// Two generators, skipping the view-1 leader (replica 1) and the slow
	// receiver: replicas 0 and 2 each submit exactly blocksPer datablocks'
	// worth of requests.
	generators := []types.ReplicaID{0, 2}
	for _, g := range generators {
		c.SubmitN(g, p.blocksPer*p.dbRequests)
	}
	totalBlocks := int64(len(generators) * p.blocksPer)

	nodes := leopardNodes(c)
	start := c.Net.Now()
	converged := func() bool {
		for _, node := range nodes {
			if node.Stats().DatablocksHeld < totalBlocks {
				return false
			}
		}
		return true
	}
	if ok := c.RunUntil(start+p.timeout, 10*time.Millisecond, converged); !ok {
		held := make([]int64, n)
		for i, node := range nodes {
			held[i] = node.Stats().DatablocksHeld
		}
		return res, fmt.Errorf("no convergence within %v: held %v of %d, drops %d",
			p.timeout, held, totalBlocks, c.Net.TotalBulkDrops())
	}
	res.Converged = c.Net.Now() - start
	res.PeakQueuedBytes = c.Net.PeakQueuedBytes()
	res.BulkDrops = c.Net.TotalBulkDrops()
	for _, node := range nodes {
		res.Retrievals += node.Stats().Retrievals
	}
	return res, nil
}
