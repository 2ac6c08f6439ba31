// Package experiments reproduces every table and figure of the Leopard
// paper's evaluation (§VI). Each experiment builds a simulated cluster via
// internal/harness, runs it in virtual time, and returns the same rows the
// paper reports. bench_test.go and cmd/leopard-sim are thin wrappers.
//
// Calibration (ROADMAP.md, "A simulator that is calibrated or silent", is
// the open item on these constants): per-replica NIC capacity is the paper's
// 9.8 Gbps; the per-replica processing rate models the ~4-vCPU EC2
// instances on which both systems peak around 1.3e5 requests/sec — far
// below NIC line rate — so small-scale runs are processing-bound and
// large-scale runs are bandwidth-bound, matching the paper's regimes.
package experiments

import (
	"fmt"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/hotstuff"
	"leopard/internal/leopard"
	"leopard/internal/metrics"
	"leopard/internal/pbft"
	"leopard/internal/protocol"
	"leopard/internal/simnet"
	"leopard/internal/types"
)

// Evaluation constants shared by all experiments (paper §VI).
const (
	PayloadSize = 128
	// ProcessingBps is the calibrated per-replica processing rate.
	ProcessingBps = 140e6
	// NICBps is the EC2 c5.xlarge NIC rate used by the paper.
	NICBps = 9.8e9

	warmup  = 1 * time.Second
	measure = 2 * time.Second
)

// TableII returns the paper's Table II batch sizes for scale n:
// (datablock requests, BFTblock links) for Leopard and the HotStuff batch.
func TableII(n int) (dbSize, bftSize, hsBatch int) {
	switch {
	case n <= 64:
		return 2000, 100, 800
	case n <= 128:
		return 3000, 300, 800
	case n <= 300:
		return 4000, 300, 800
	default:
		return 4000, 400, 800
	}
}

// netConfig returns the default simulated network for scale n.
func netConfig() simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.EgressBps = NICBps
	cfg.IngressBps = NICBps
	cfg.ProcBps = ProcessingBps
	return cfg
}

// Point is one measured configuration.
type Point struct {
	N          int
	Param      float64 // the swept parameter (batch size, bandwidth, ...)
	Throughput float64 // requests per second
	MeanLat    time.Duration
	LeaderMbps float64 // leader's total bandwidth utilization
}

// leopardCluster builds an n-replica Leopard cluster on simnet under
// closed-loop saturation.
func leopardCluster(n, dbSize, bftSize int, net simnet.Config, mutate func(*leopard.Config)) (*harness.Cluster, error) {
	return leopardClusterDepth(n, dbSize, bftSize, 2*dbSize, net, mutate)
}

// leopardClusterDepth is leopardCluster with an explicit saturation depth;
// zero disables background load (controlled microbenchmarks).
func leopardClusterDepth(n, dbSize, bftSize, depth int, net simnet.Config, mutate func(*leopard.Config)) (*harness.Cluster, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, err
	}
	suite, err := crypto.NewSimSuite(n, []byte("experiments"))
	if err != nil {
		return nil, err
	}
	return harness.NewCluster(harness.Options{
		N:               n,
		Net:             net,
		PayloadSize:     PayloadSize,
		SaturationDepth: depth,
		LatencySample:   16,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			cfg := leopard.Config{
				ID:               id,
				Quorum:           q,
				Suite:            suite,
				DatablockSize:    dbSize,
				BFTBlockSize:     bftSize,
				TrustDigests:     true,
				SkipRequestDedup: true,
				// Throughput experiments measure the normal case under an
				// honest leader; progress stalls are queueing, not leader
				// faults, so the view-change timer stays out of the way
				// (fault experiments override this).
				ViewChangeTimeout: time.Hour,
				// A small window bounds the in-flight backlog so warmup
				// reaches steady state quickly even at n = 600.
				MaxOutstandingDatablocks: 2,
			}
			if mutate != nil {
				mutate(&cfg)
			}
			return leopard.NewNode(cfg)
		},
	})
}

// hotstuffCluster builds an n-replica HotStuff cluster on simnet.
func hotstuffCluster(n, batch int, net simnet.Config) (*harness.Cluster, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, err
	}
	suite, err := crypto.NewSimSuite(n, []byte("experiments"))
	if err != nil {
		return nil, err
	}
	return harness.NewCluster(harness.Options{
		N:               n,
		Net:             net,
		PayloadSize:     PayloadSize,
		SaturationDepth: 4 * batch,
		SubmitToLeader:  true,
		LatencySample:   16,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			node, err := hotstuff.NewNode(hotstuff.Config{ID: id, Quorum: q, Suite: suite, BatchSize: batch})
			if err != nil {
				return nil, err
			}
			node.TrustDigests = true
			node.SkipRequestDedup = true
			return node, nil
		},
	})
}

// pbftCluster builds an n-replica PBFT cluster on simnet.
func pbftCluster(n, batch int, net simnet.Config) (*harness.Cluster, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, err
	}
	suite, err := crypto.NewSimSuite(n, []byte("experiments"))
	if err != nil {
		return nil, err
	}
	return harness.NewCluster(harness.Options{
		N:               n,
		Net:             net,
		PayloadSize:     PayloadSize,
		SaturationDepth: 4 * batch,
		SubmitToLeader:  true,
		LatencySample:   16,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			node, err := pbft.NewNode(pbft.Config{ID: id, Quorum: q, Suite: suite, BatchSize: batch})
			if err != nil {
				return nil, err
			}
			node.TrustDigests = true
			node.SkipRequestDedup = true
			return node, nil
		},
	})
}

// measureLong is measureCluster with a longer window so queueing latency
// under saturation (seconds at low bandwidth, as in the paper's Fig. 10)
// is observable within the run.
func measureLong(c *harness.Cluster, n int, param float64) Point {
	c.Start()
	c.Warmup(2 * time.Second)
	res := c.MeasureFor(12 * time.Second)
	leader := c.LeaderStats()
	return Point{
		N:          n,
		Param:      param,
		Throughput: res.Throughput,
		MeanLat:    res.MeanLat,
		LeaderMbps: metrics.Mbps(leader.Total(), res.Elapsed),
	}
}

// measureCluster warms a cluster up and measures one point.
func measureCluster(c *harness.Cluster, n int, param float64) Point {
	c.Start()
	c.Warmup(warmup)
	res := c.MeasureFor(measure)
	leader := c.LeaderStats()
	return Point{
		N:          n,
		Param:      param,
		Throughput: res.Throughput,
		MeanLat:    res.MeanLat,
		LeaderMbps: metrics.Mbps(leader.Total(), res.Elapsed),
	}
}

// LeopardThroughput measures Leopard at scale n with the given batches.
func LeopardThroughput(n, dbSize, bftSize int) (Point, error) {
	c, err := leopardCluster(n, dbSize, bftSize, netConfig(), nil)
	if err != nil {
		return Point{}, err
	}
	return measureCluster(c, n, 0), nil
}

// HotStuffThroughput measures HotStuff at scale n with the given batch.
func HotStuffThroughput(n, batch int) (Point, error) {
	c, err := hotstuffCluster(n, batch, netConfig())
	if err != nil {
		return Point{}, err
	}
	return measureCluster(c, n, float64(batch)), nil
}

// PBFTThroughput measures PBFT at scale n with the given batch.
func PBFTThroughput(n, batch int) (Point, error) {
	c, err := pbftCluster(n, batch, netConfig())
	if err != nil {
		return Point{}, err
	}
	return measureCluster(c, n, float64(batch)), nil
}

// Fig2 reproduces Fig. 2: HotStuff throughput and leader bandwidth as n
// grows — the leader-bottleneck motivation experiment.
func Fig2(scales []int) ([]Point, error) {
	if len(scales) == 0 {
		scales = []int{4, 16, 32, 64, 128, 256, 300}
	}
	var out []Point
	for _, n := range scales {
		_, _, batch := TableII(n)
		p, err := HotStuffThroughput(n, batch)
		if err != nil {
			return nil, fmt.Errorf("fig2 n=%d: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// Fig6 reproduces Fig. 6: HotStuff throughput vs batch size.
func Fig6(scales []int, batches []int) ([]Point, error) {
	if len(scales) == 0 {
		scales = []int{32, 64, 128, 256, 300}
	}
	if len(batches) == 0 {
		batches = []int{100, 200, 400, 800, 1200}
	}
	var out []Point
	for _, n := range scales {
		for _, b := range batches {
			p, err := HotStuffThroughput(n, b)
			if err != nil {
				return nil, fmt.Errorf("fig6 n=%d batch=%d: %w", n, b, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// Fig7 reproduces Fig. 7: Leopard throughput vs BFTblock size (links per
// proposal) with the datablock size fixed.
func Fig7(scales []int, bftSizes []int) ([]Point, error) {
	if len(scales) == 0 {
		scales = []int{32, 64, 128, 256, 400, 600}
	}
	if len(bftSizes) == 0 {
		bftSizes = []int{10, 50, 100, 200, 400}
	}
	var out []Point
	for _, n := range scales {
		dbSize, _, _ := TableII(n)
		for _, bft := range bftSizes {
			c, err := leopardCluster(n, dbSize, bft, netConfig(), nil)
			if err != nil {
				return nil, fmt.Errorf("fig7 n=%d bft=%d: %w", n, bft, err)
			}
			pt := measureCluster(c, n, float64(bft))
			out = append(out, pt)
		}
	}
	return out, nil
}

// Fig8 reproduces Fig. 8: Leopard throughput vs datablock size at two
// fixed BFTblock sizes (10 and 100).
func Fig8(scales []int, dbSizes []int, bftSize int) ([]Point, error) {
	if len(scales) == 0 {
		scales = []int{32, 64, 128}
	}
	if len(dbSizes) == 0 {
		dbSizes = []int{500, 1000, 2000, 3000, 4000}
	}
	if bftSize == 0 {
		bftSize = 10
	}
	var out []Point
	for _, n := range scales {
		for _, db := range dbSizes {
			c, err := leopardCluster(n, db, bftSize, netConfig(), nil)
			if err != nil {
				return nil, fmt.Errorf("fig8 n=%d db=%d: %w", n, db, err)
			}
			pt := measureCluster(c, n, float64(db))
			out = append(out, pt)
		}
	}
	return out, nil
}

// Fig9Row pairs both systems at one scale.
type Fig9Row struct {
	N        int
	Leopard  Point
	HotStuff *Point // nil above the scale where HotStuff cannot run
}

// Fig9 reproduces Fig. 9: throughput of Leopard and HotStuff vs n with the
// Table II batch sizes. HotStuff is only run to maxHotStuff (the paper's
// implementation could not run beyond 300).
func Fig9(scales []int, maxHotStuff int) ([]Fig9Row, error) {
	if len(scales) == 0 {
		scales = []int{32, 64, 128, 256, 300, 400, 600}
	}
	if maxHotStuff == 0 {
		maxHotStuff = 300
	}
	var out []Fig9Row
	for _, n := range scales {
		dbSize, bftSize, hsBatch := TableII(n)
		leo, err := LeopardThroughput(n, dbSize, bftSize)
		if err != nil {
			return nil, fmt.Errorf("fig9 leopard n=%d: %w", n, err)
		}
		row := Fig9Row{N: n, Leopard: leo}
		if n <= maxHotStuff {
			hs, err := HotStuffThroughput(n, hsBatch)
			if err != nil {
				return nil, fmt.Errorf("fig9 hotstuff n=%d: %w", n, err)
			}
			row.HotStuff = &hs
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig10Row is one (system, n, bandwidth) measurement of the scaling-up
// experiment.
type Fig10Row struct {
	System        string
	N             int
	BandwidthMbps float64
	TputMbps      float64 // confirmed payload bits per second, in Mbps
	MeanLat       time.Duration
}

// Fig10 reproduces Fig. 10: throughput and latency under 20-200 Mbps
// per-replica (half-duplex) bandwidth for both systems.
func Fig10(scales []int, bandwidthsMbps []float64) ([]Fig10Row, error) {
	if len(scales) == 0 {
		scales = []int{4, 16, 64, 128}
	}
	if len(bandwidthsMbps) == 0 {
		bandwidthsMbps = []float64{20, 40, 80, 100, 200}
	}
	var out []Fig10Row
	for _, n := range scales {
		for _, bw := range bandwidthsMbps {
			net := netConfig()
			net.HalfDuplex = true
			net.EgressBps = bw * 1e6
			net.TickInterval = 10 * time.Millisecond

			// Batch sizes are fixed across bandwidths (as in the paper);
			// smaller than Table II so low-bandwidth runs still confirm
			// within the measurement window.
			c, err := leopardCluster(n, 500, 10, net, func(cfg *leopard.Config) {
				cfg.ViewChangeTimeout = time.Hour // low bandwidth, no VC noise
				// Dissemination cycles take seconds on throttled links;
				// a deeper window keeps the pipeline full, and a long
				// retrieval timer models the paper's network-profiled
				// adaptive timer (no spurious queries while blocks are
				// legitimately in flight).
				cfg.MaxOutstandingDatablocks = 8
				cfg.RetrievalTimeout = time.Hour
			})
			if err != nil {
				return nil, err
			}
			pt := measureLong(c, n, bw)
			out = append(out, Fig10Row{
				System: "Leopard", N: n, BandwidthMbps: bw,
				TputMbps: pt.Throughput * PayloadSize * 8 / 1e6,
				MeanLat:  pt.MeanLat,
			})

			hc, err := hotstuffCluster(n, 400, net)
			if err != nil {
				return nil, err
			}
			hpt := measureLong(hc, n, bw)
			out = append(out, Fig10Row{
				System: "HotStuff", N: n, BandwidthMbps: bw,
				TputMbps: hpt.Throughput * PayloadSize * 8 / 1e6,
				MeanLat:  hpt.MeanLat,
			})
		}
	}
	return out, nil
}

// Fig11 reproduces Fig. 11: leader bandwidth utilization vs n for both
// systems under saturation.
func Fig11(scales []int, maxHotStuff int) ([]Fig9Row, error) {
	// Fig 11 reads the LeaderMbps field of the same runs as Fig 9.
	return Fig9(scales, maxHotStuff)
}

// Table3 reproduces Table III: the bandwidth utilization breakdown at the
// leader and at a non-leader replica (n = 32 in the paper).
func Table3(n int) (leaderRows, replicaRows []metrics.BreakdownRow, err error) {
	if n == 0 {
		n = 32
	}
	dbSize, bftSize, _ := TableII(n)
	c, err := leopardCluster(n, dbSize, bftSize, netConfig(), nil)
	if err != nil {
		return nil, nil, err
	}
	c.Start()
	c.Warmup(warmup)
	c.MeasureFor(measure)
	return c.LeaderStats().Breakdown(), c.NonLeaderStats().Breakdown(), nil
}

// Table4 reproduces Table IV: the latency breakdown across Leopard's
// pipeline stages (n = 32 in the paper).
func Table4(n int) ([]metrics.StageRow, error) {
	if n == 0 {
		n = 32
	}
	dbSize, bftSize, _ := TableII(n)
	var nodes []*leopard.Node
	c, err := leopardCluster(n, dbSize, bftSize, netConfig(), nil)
	if err != nil {
		return nil, err
	}
	for _, r := range c.Replicas {
		if node, ok := r.(*leopard.Node); ok {
			nodes = append(nodes, node)
		}
	}
	c.Start()
	c.Warmup(warmup)
	c.MeasureFor(measure)
	// Aggregate stage timers across replicas.
	var agg metrics.StageTimer
	for _, node := range nodes {
		for _, row := range node.Stats().Stages.Rows() {
			agg.Add(row.Stage, row.Total)
		}
	}
	return agg.Rows(), nil
}
