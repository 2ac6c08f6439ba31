// Package experiments reproduces every table and figure of the Leopard
// paper's evaluation (§VI). Each experiment builds a simulated cluster via
// internal/harness, runs it in virtual time, and returns the same rows the
// paper reports. Catalog declares each experiment once — its sweeps, its run
// and the printer of its rows — and cmd/leopard-sim, bench_test.go,
// examples/scaling and testdata/experiments.golden loop over it.
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
	"io"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/hotstuff"
	"leopard/internal/leopard"
	"leopard/internal/leopard/analysis"
	"leopard/internal/obs"
	"leopard/internal/protocol"
	"leopard/internal/simnet"
	"leopard/internal/storage"
	"leopard/internal/transport"
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

	// maxHotStuff is the largest scale HotStuff is run at: the paper's
	// implementation could not run beyond 300.
	maxHotStuff = 300
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
			node.SkipRequestDedup = true
			return node, nil
		},
	})
}

// leopardNodes returns the replicas of a cluster built by leopardCluster or
// chaosCluster as Leopard nodes. A restart replaces a node, so callers that
// restart one call this again.
func leopardNodes(c *harness.Cluster) []*leopard.Node {
	nodes := make([]*leopard.Node, len(c.Replicas))
	for i, r := range c.Replicas {
		nodes[i] = r.(*leopard.Node)
	}
	return nodes
}

// maxExecuted is the highest executed height across a Leopard cluster.
func maxExecuted(c *harness.Cluster) types.SeqNum {
	var h types.SeqNum
	for _, node := range leopardNodes(c) {
		h = max(h, node.ExecutedTo())
	}
	return h
}

// scheduleLoad submits one datablock's worth of requests (requests) to each
// generator every `every`, from 50 ms until the absolute time until: the
// deterministic background workload of the fault scenarios.
func scheduleLoad(c *harness.Cluster, generators []types.ReplicaID, requests int, every, until time.Duration) {
	var tick func(at time.Duration)
	tick = func(at time.Duration) {
		c.Net.ScheduleCall(at, func(now time.Duration) {
			if now >= until {
				return
			}
			for _, g := range generators {
				c.SubmitN(g, requests)
			}
			tick(now + every)
		})
	}
	tick(50 * time.Millisecond)
}

// trafficSignature is every replica's sent/received byte totals, the part of
// a run digest that catches a moved message.
func trafficSignature(c *harness.Cluster) string {
	var sig string
	for i := range c.Replicas {
		bw := c.Net.Stats(types.ReplicaID(i))
		sig += fmt.Sprintf("%d:%d/%d ", i, bw.TotalSent(), bw.TotalReceived())
	}
	return sig
}

// simStores holds each replica's storage.Log on one MemFS. Write-through
// appends (SyncEachAppend) start no syncer goroutine: runs stay deterministic.
type simStores struct {
	fs       *storage.MemFS
	logs     []*storage.Log
	reopened []storage.Stats // each restart's log as Open left it
}

// open opens replica id's log. On a restart it first closes the crashed
// replica's log, so the new one recovers through Log.Open's segment scan of
// the bytes the old one wrote.
func (s *simStores) open(id types.ReplicaID) (*storage.Log, error) {
	old := s.logs[id]
	if old != nil {
		if err := old.Close(); err != nil {
			return nil, err
		}
	}
	l, err := storage.Open(fmt.Sprintf("replica-%d", id), storage.Options{FS: s.fs, SyncEachAppend: true})
	if err != nil {
		return nil, err
	}
	s.logs[id] = l
	if old != nil {
		s.reopened = append(s.reopened, l.Stats())
	}
	return l, nil
}

// verify checks every record each log retains: its datablocks, payloads
// hashed afresh, must match the block's links. A log that kept memory of
// the replica's (a datablock borrowing from its wire frame) would serve
// whatever the frame held after its release.
func (s *simStores) verify() error {
	for id, l := range s.logs {
		if l == nil {
			continue
		}
		first, last := l.Bounds()
		for sn := first; first > 0 && sn <= last; sn++ {
			rec, ok := l.Get(sn)
			if !ok {
				continue
			}
			for i, h := range rec.Block.Content {
				db := rec.Datablocks[i]
				reqs := make([]types.Request, len(db.Requests))
				for j, r := range db.Requests {
					reqs[j] = types.Request{ClientID: r.ClientID, Seq: r.Seq, Payload: r.Payload}
				}
				if crypto.HashDatablock(&types.Datablock{Ref: db.Ref, Requests: reqs}) != h {
					return fmt.Errorf("replica %d's log serves record %d with datablock %d unlike its link", id, sn, i)
				}
			}
		}
	}
	return nil
}

// executionStates returns every replica's execution chain hash.
func executionStates(c *harness.Cluster) []types.Hash {
	var out []types.Hash
	for _, node := range leopardNodes(c) {
		out = append(out, node.ExecutionState())
	}
	return out
}

// measurePoint warms a cluster up for warm, then measures one point over
// window.
func measurePoint(c *harness.Cluster, n int, param float64, warm, window time.Duration) Point {
	c.Start()
	c.Warmup(warm)
	res := c.MeasureFor(window)
	return Point{
		N:          n,
		Param:      param,
		Throughput: res.Throughput,
		MeanLat:    res.MeanLat,
		LeaderMbps: float64(c.LeaderStats().Total()) * 8 / 1e6 / res.Elapsed.Seconds(),
	}
}

// LeopardThroughput measures Leopard at scale n with the given batches.
func LeopardThroughput(n, dbSize, bftSize int) (Point, error) {
	c, err := leopardCluster(n, dbSize, bftSize, netConfig(), nil)
	if err != nil {
		return Point{}, err
	}
	return measurePoint(c, n, 0, warmup, measure), nil
}

// HotStuffThroughput measures HotStuff at scale n with the given batch.
func HotStuffThroughput(n, batch int) (Point, error) {
	c, err := hotstuffCluster(n, batch, netConfig())
	if err != nil {
		return Point{}, err
	}
	return measurePoint(c, n, float64(batch), warmup, measure), nil
}

// Fig2Rows is Fig. 2: HotStuff throughput and leader bandwidth as n grows —
// the leader-bottleneck motivation experiment.
type Fig2Rows []Point

func fig2(s Sweep) (Fig2Rows, error) {
	return each(s, func(n, _ int) (Point, error) {
		_, _, batch := TableII(n)
		return HotStuffThroughput(n, batch)
	})
}

func (rows Fig2Rows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   throughput(Kreq/s)   leader(Gbps)")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d   %18.1f   %12.2f\n", r.N, r.Throughput/1e3, r.LeaderMbps/1e3)
	}
}

// Table1Row is one protocol's row of Table I, with the §V-B model's numeric
// scaling factor at each requested n (payload 128 B, Table II batches).
type Table1Row struct {
	analysis.TableIRow
	SF []ScalingFactor `json:",omitempty"`
}

// ScalingFactor is the model's numeric scaling factor at one scale.
type ScalingFactor struct {
	N  int
	SF float64
}

// Table1Rows is Table I from the analytical cost model.
type Table1Rows []Table1Row

func table1(s Sweep) (Table1Rows, error) {
	var out Table1Rows
	for _, r := range analysis.TableI() {
		row := Table1Row{TableIRow: r}
		for _, n := range s.N {
			db, bft, _ := TableII(n)
			p := analysis.DefaultParams(n, db)
			p.Tau = float64(bft)
			sf := analysis.LeaderDisseminationScalingFactor(p, 1, false)
			if r.Protocol == "Leopard" {
				sf = analysis.LeopardScalingFactor(p)
			}
			row.SF = append(row.SF, ScalingFactor{N: n, SF: sf})
		}
		out = append(out, row)
	}
	return out, nil
}

func (rows Table1Rows) Print(w io.Writer) {
	fmt.Fprint(w, "protocol   leader   non-leader   scaling-factor")
	for _, sf := range rows[0].SF {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("SF(n=%d)", sf.N))
	}
	fmt.Fprintln(w, "   votes(opt/faulty)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s  %-6s   %-10s   %-14s", r.Protocol, r.LeaderCost, r.ReplicaCost, r.ScalingFactor)
		for _, sf := range r.SF {
			fmt.Fprintf(w, " %10.3f", sf.SF)
		}
		fmt.Fprintf(w, "   %d / %d\n", r.VotingOptimistic, r.VotingFaulty)
	}
}

// Fig6Rows is Fig. 6: HotStuff throughput vs batch size.
type Fig6Rows []Point

func fig6(s Sweep) (Fig6Rows, error) { return each(s, HotStuffThroughput) }

func (rows Fig6Rows) Print(w io.Writer) { printPoints(w, "batch", rows) }

// Fig7Rows is Fig. 7: Leopard throughput vs BFTblock size (links per
// proposal) with the datablock size fixed.
type Fig7Rows []Point

func fig7(s Sweep) (Fig7Rows, error) {
	return each(s, func(n, bft int) (Point, error) {
		dbSize, _, _ := TableII(n)
		p, err := LeopardThroughput(n, dbSize, bft)
		p.Param = float64(bft)
		return p, err
	})
}

func (rows Fig7Rows) Print(w io.Writer) { printPoints(w, "links", rows) }

// Fig8Group is Fig. 8 at one fixed BFTblock size.
type Fig8Group struct {
	BFTBlockSize int
	Rows         []Point
}

// Fig8Rows is Fig. 8: Leopard throughput vs datablock size at two fixed
// BFTblock sizes (10 and 100).
type Fig8Rows []Fig8Group

func fig8(s Sweep) (Fig8Rows, error) {
	var out Fig8Rows
	for _, bft := range []int{10, 100} {
		rows, err := each(s, func(n, db int) (Point, error) {
			p, err := LeopardThroughput(n, db, bft)
			p.Param = float64(db)
			return p, err
		})
		if err != nil {
			return nil, fmt.Errorf("bft=%d: %w", bft, err)
		}
		out = append(out, Fig8Group{BFTBlockSize: bft, Rows: rows})
	}
	return out, nil
}

func (rows Fig8Rows) Print(w io.Writer) {
	for _, g := range rows {
		fmt.Fprintf(w, "-- BFTblock size %d --\n", g.BFTBlockSize)
		printPoints(w, "datablock", g.Rows)
	}
}

func printPoints(w io.Writer, param string, rows []Point) {
	fmt.Fprintf(w, "   n   %9s   throughput(Kreq/s)\n", param)
	for _, r := range rows {
		fmt.Fprintf(w, "%4d   %9.0f   %18.1f\n", r.N, r.Param, r.Throughput/1e3)
	}
}

// Fig9Row pairs both systems at one scale.
type Fig9Row struct {
	N        int
	Leopard  Point
	HotStuff *Point // nil above maxHotStuff
}

// Fig9Rows is Fig. 9, the headline result: throughput of Leopard and
// HotStuff vs n with the Table II batch sizes.
type Fig9Rows []Fig9Row

func fig9(s Sweep) (Fig9Rows, error) {
	return each(s, func(n, _ int) (Fig9Row, error) {
		dbSize, bftSize, hsBatch := TableII(n)
		leo, err := LeopardThroughput(n, dbSize, bftSize)
		if err != nil {
			return Fig9Row{}, fmt.Errorf("leopard: %w", err)
		}
		row := Fig9Row{N: n, Leopard: leo}
		if n <= maxHotStuff {
			hs, err := HotStuffThroughput(n, hsBatch)
			if err != nil {
				return Fig9Row{}, fmt.Errorf("hotstuff: %w", err)
			}
			row.HotStuff = &hs
		}
		return row, nil
	})
}

func (rows Fig9Rows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   Leopard(Kreq/s)   HotStuff(Kreq/s)   ratio")
	for _, r := range rows {
		if r.HotStuff == nil {
			fmt.Fprintf(w, "%4d   %15.1f   %16s   %5s\n", r.N, r.Leopard.Throughput/1e3, "-", "-")
			continue
		}
		fmt.Fprintf(w, "%4d   %15.1f   %16.1f   %4.1fx\n", r.N, r.Leopard.Throughput/1e3,
			r.HotStuff.Throughput/1e3, r.Leopard.Throughput/r.HotStuff.Throughput)
	}
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

// Fig10Rows is Fig. 10: throughput and latency under 20-200 Mbps
// per-replica (half-duplex) bandwidth for both systems.
type Fig10Rows []Fig10Row

func fig10(s Sweep) (Fig10Rows, error) {
	var out Fig10Rows
	for _, n := range s.N {
		for _, mbps := range s.Param {
			bw := float64(mbps)
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
			// A long window makes queueing latency under saturation (seconds
			// at low bandwidth, as in the paper) observable within the run.
			row := func(system string, c *harness.Cluster) Fig10Row {
				pt := measurePoint(c, n, bw, 2*time.Second, 12*time.Second)
				return Fig10Row{
					System: system, N: n, BandwidthMbps: bw,
					TputMbps: pt.Throughput * PayloadSize * 8 / 1e6,
					MeanLat:  pt.MeanLat,
				}
			}
			out = append(out, row("Leopard", c))
			hc, err := hotstuffCluster(n, 400, net)
			if err != nil {
				return nil, err
			}
			out = append(out, row("HotStuff", hc))
		}
	}
	return out, nil
}

func (rows Fig10Rows) Print(w io.Writer) {
	fmt.Fprintln(w, "system     n   bandwidth(Mbps)   throughput(Mbps)   mean-latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4d   %15.0f   %16.2f   %12v\n", r.System, r.N, r.BandwidthMbps, r.TputMbps, r.MeanLat)
	}
}

// Fig11Rows is Fig. 11: leader bandwidth utilization vs n for both systems
// under saturation — the LeaderMbps of the same runs as Fig. 9.
type Fig11Rows []Fig9Row

func fig11(s Sweep) (Fig11Rows, error) {
	rows, err := fig9(s)
	return Fig11Rows(rows), err
}

func (rows Fig11Rows) Print(w io.Writer) {
	fmt.Fprintln(w, "   n   Leopard-leader(Mbps)   HotStuff-leader(Mbps)")
	for _, r := range rows {
		if r.HotStuff == nil {
			fmt.Fprintf(w, "%4d   %20.0f   %21s\n", r.N, r.Leopard.LeaderMbps, "-")
			continue
		}
		fmt.Fprintf(w, "%4d   %20.0f   %21.0f\n", r.N, r.Leopard.LeaderMbps, r.HotStuff.LeaderMbps)
	}
}

// Table3Row is Table III at one scale: the bandwidth utilization breakdown
// at the leader and at a non-leader replica.
type Table3Row struct {
	N       int
	Leader  []BreakdownRow
	Replica []BreakdownRow
}

// BreakdownRow is one line of a Table III utilization breakdown.
type BreakdownRow struct {
	Direction string // "send" or "receive"
	Class     string
	Bytes     int64
	Percent   float64 // of the replica's total (send+receive)
}

// breakdown renders the per-class shares of one replica's total traffic.
func breakdown(b *simnet.Bandwidth) []BreakdownRow {
	total := b.Total()
	if total == 0 {
		return nil
	}
	var rows []BreakdownRow
	add := func(direction string, bytes *[transport.NumClasses]int64) {
		for c := 1; c < transport.NumClasses; c++ {
			if bytes[c] > 0 {
				rows = append(rows, BreakdownRow{
					Direction: direction, Class: transport.Class(c).String(),
					Bytes: bytes[c], Percent: 100 * float64(bytes[c]) / float64(total),
				})
			}
		}
	}
	add("send", &b.Sent)
	add("receive", &b.Received)
	return rows
}

// printBreakdown renders rows as an aligned text table.
func printBreakdown(w io.Writer, rows []BreakdownRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-11s %12d B %6.2f%%\n", r.Direction, r.Class, r.Bytes, r.Percent)
	}
}

// Table3Rows is Table III at each scale (n = 32 in the paper).
type Table3Rows []Table3Row

func table3(s Sweep) (Table3Rows, error) {
	return each(s, func(n, _ int) (Table3Row, error) {
		dbSize, bftSize, _ := TableII(n)
		c, err := leopardCluster(n, dbSize, bftSize, netConfig(), nil)
		if err != nil {
			return Table3Row{}, err
		}
		c.Start()
		c.Warmup(warmup)
		c.MeasureFor(measure)
		return Table3Row{N: n, Leader: breakdown(c.LeaderStats()), Replica: breakdown(c.NonLeaderStats())}, nil
	})
}

func (rows Table3Rows) Print(w io.Writer) {
	for _, r := range rows {
		fmt.Fprintf(w, "-- leader, n=%d --\n", r.N)
		printBreakdown(w, r.Leader)
		fmt.Fprintf(w, "-- non-leader, n=%d --\n", r.N)
		printBreakdown(w, r.Replica)
	}
}

// Table4Row is Table IV at one scale: the latency breakdown across
// Leopard's pipeline stages, summed over replicas.
type Table4Row struct {
	N      int
	Stages []obs.StageRow
}

// Table4Rows is Table IV at each scale (n = 32 in the paper).
type Table4Rows []Table4Row

func table4(s Sweep) (Table4Rows, error) {
	return each(s, func(n, _ int) (Table4Row, error) {
		dbSize, bftSize, _ := TableII(n)
		c, err := leopardCluster(n, dbSize, bftSize, netConfig(), nil)
		if err != nil {
			return Table4Row{}, err
		}
		// The stage timers are cumulative and Warmup resets only the network
		// counters and the latency tracker, so the row is the difference
		// over the measured window.
		stages := func() map[string]time.Duration {
			sum := make(map[string]time.Duration)
			for _, node := range leopardNodes(c) {
				for _, row := range node.Stats().Stages.Rows() {
					sum[row.Stage] += row.Total
				}
			}
			return sum
		}
		c.Start()
		c.Warmup(warmup)
		before := stages()
		c.MeasureFor(measure)
		var agg obs.StageTimer
		for stage, total := range stages() {
			agg.Add(stage, total-before[stage])
		}
		return Table4Row{N: n, Stages: agg.Rows()}, nil
	})
}

func (rows Table4Rows) Print(w io.Writer) {
	for _, r := range rows {
		fmt.Fprintf(w, "-- n=%d --\n", r.N)
		for _, st := range r.Stages {
			fmt.Fprintf(w, "%-26s %6.2f%%\n", st.Stage, st.Percent)
		}
	}
}
