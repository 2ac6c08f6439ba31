package experiments

import (
	"fmt"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/protocol"
	"leopard/internal/types"
)

// The rotate scenario studies the vote-aggregation ceiling, not raw
// dissemination bandwidth, so it uses small batches (many proposals per
// second) and charges the receiver's serial CPU stage per vote/proof
// message. A fixed leader absorbs ~2(n-1) agreement votes plus (n-1) ready
// announcements per datablock through one serial stage; at rotateVoteCost
// that stage saturates well before the bulk pipeline does at n=64, which is
// exactly the single-leader plateau the rotating schedule removes.
const (
	rotateDBSize   = 200
	rotateBFTSize  = 10
	rotateVoteCost = 50 * time.Microsecond
)

// RotateRow is one measured configuration of the fixed-vs-rotated A/B.
type RotateRow struct {
	N          int
	Mode       string // "fixed" or "rotated"
	Throughput float64
	MeanLat    time.Duration
	P50Lat     time.Duration
	P99Lat     time.Duration
	// LeaderCPU is the CPU-stage utilization of the view-1 leader over the
	// measurement window; OtherCPU is the mean utilization of the remaining
	// replicas, and MaxCPU the cluster-wide maximum. Under rotation
	// LeaderCPU should drop toward OtherCPU — no replica is special.
	LeaderCPU float64
	OtherCPU  float64
	MaxCPU    float64
}

// rotateCluster builds the scenario cluster: closed-loop saturation, vote
// CPU accounting on, and (in rotated mode) the rotating schedule with
// clients submitting everywhere.
func rotateCluster(n int, rotate bool, seed int64) (*harness.Cluster, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, err
	}
	suite, err := crypto.NewSimSuite(n, []byte("experiments"))
	if err != nil {
		return nil, err
	}
	net := netConfig()
	net.VoteProcCost = rotateVoteCost
	net.Seed = seed
	mode := "fixed"
	if rotate {
		mode = "rotated"
	}
	ts := traceRun("rotate "+mode, n)
	return harness.NewCluster(harness.Options{
		N:                n,
		Net:              net,
		PayloadSize:      PayloadSize,
		SaturationDepth:  2 * rotateDBSize,
		LatencySample:    16,
		SubmitEverywhere: rotate,
		Trace:            ts,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			return leopard.NewNode(leopard.Config{
				ID:                       id,
				Quorum:                   q,
				Suite:                    suite,
				DatablockSize:            rotateDBSize,
				BFTBlockSize:             rotateBFTSize,
				RotateLeaders:            rotate,
				TrustDigests:             true,
				SkipRequestDedup:         true,
				ViewChangeTimeout:        time.Hour, // honest cluster, no VC noise
				MaxOutstandingDatablocks: 2,
				Tracer:                   ts.Tracer(int(id)),
			})
		},
	})
}

// rotateMeasure warms up, measures, and folds per-replica CPU-stage shares
// into one row.
func rotateMeasure(c *harness.Cluster, n int, mode string) RotateRow {
	c.Start()
	c.Warmup(warmup)
	res := c.MeasureFor(measure)
	row := RotateRow{
		N:          n,
		Mode:       mode,
		Throughput: res.Throughput,
		MeanLat:    res.MeanLat,
		P50Lat:     res.P50Lat,
		P99Lat:     res.P99Lat,
	}
	leader := c.Replicas[0].Leader()
	elapsed := res.Elapsed.Seconds()
	var otherSum float64
	for i := 0; i < n; i++ {
		share := c.Net.ProcBusy(types.ReplicaID(i)).Seconds() / elapsed
		if share > row.MaxCPU {
			row.MaxCPU = share
		}
		if types.ReplicaID(i) == leader {
			row.LeaderCPU = share
		} else {
			otherSum += share
		}
	}
	row.OtherCPU = otherSum / float64(n-1)
	return row
}

// RotateScenario runs the fixed-vs-rotated A/B at each scale: same batches,
// same network, same vote CPU cost — only the proposer schedule differs.
func RotateScenario(scales []int) ([]RotateRow, error) {
	if len(scales) == 0 {
		scales = []int{4, 16, 64}
	}
	var out []RotateRow
	for _, n := range scales {
		for _, rotate := range []bool{false, true} {
			mode := "fixed"
			if rotate {
				mode = "rotated"
			}
			c, err := rotateCluster(n, rotate, 1)
			if err != nil {
				return nil, fmt.Errorf("rotate n=%d mode=%s: %w", n, mode, err)
			}
			out = append(out, rotateMeasure(c, n, mode))
		}
	}
	return out, nil
}

// RotateRunDigest renders one seeded rotated run as a deterministic string:
// per-replica traffic and CPU-stage counters plus every replica's execution
// frontier and chain state. Two identically-seeded runs must be
// byte-identical (TestRotateDeterministic, CI's rotate determinism gate).
func RotateRunDigest(n int) (string, error) {
	c, err := rotateCluster(n, true, 1)
	if err != nil {
		return "", err
	}
	c.Start()
	c.Warmup(500 * time.Millisecond)
	res := c.MeasureFor(time.Second)
	out := fmt.Sprintf("n=%d confirmed=%d ", n, res.Confirmed)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		bw := c.Net.Stats(id)
		node := c.Replicas[i].(*leopard.Node)
		state := node.ExecutionState()
		out += fmt.Sprintf("%d:%d/%d/%d/%d/%x ",
			i, bw.TotalSent(), bw.TotalReceived(), c.Net.ProcBusy(id), node.ExecutedTo(), state[:4])
	}
	return out, nil
}
