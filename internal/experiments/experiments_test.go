package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"leopard/internal/simnet"
	"leopard/internal/transport"
)

func TestBreakdownPercentages(t *testing.T) {
	var b simnet.Bandwidth
	b.AddReceived(transport.ClassDatablock, 960)
	b.AddSent(transport.ClassBFTblock, 30)
	b.AddSent(transport.ClassProof, 10)
	rows := breakdown(&b)
	var sum float64
	var datablockPct float64
	for _, r := range rows {
		sum += r.Percent
		if r.Class == "datablock" && r.Direction == "receive" {
			datablockPct = r.Percent
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("percentages sum to %f", sum)
	}
	if datablockPct != 96 {
		t.Errorf("datablock share = %f%%, want 96%%", datablockPct)
	}
	var text bytes.Buffer
	printBreakdown(&text, rows)
	if !strings.Contains(text.String(), "datablock") || !strings.Contains(text.String(), "96.00%") {
		t.Errorf("formatted breakdown missing content:\n%s", text.String())
	}
}

func TestBreakdownEmpty(t *testing.T) {
	var b simnet.Bandwidth
	rows := breakdown(&b)
	if rows != nil {
		t.Errorf("empty breakdown should be nil, got %v", rows)
	}
}

func TestPrintBreakdownZeroTotal(t *testing.T) {
	var b simnet.Bandwidth
	var text bytes.Buffer
	printBreakdown(&text, breakdown(&b))
	if text.Len() != 0 {
		t.Errorf("zero-total breakdown should print nothing, got %q", text.String())
	}
}

// TestCalibrationSmallScale checks the two systems land in the paper's
// processing-bound regime at n=16: both near the ~1.3e5 req/s peak.
func TestCalibrationSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	leo, err := LeopardThroughput(16, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := HotStuffThroughput(16, 800)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=16: leopard=%.0f req/s (lat %v, leader %.0f Mbps), hotstuff=%.0f req/s (lat %v, leader %.0f Mbps)",
		leo.Throughput, leo.MeanLat, leo.LeaderMbps, hs.Throughput, hs.MeanLat, hs.LeaderMbps)
	if leo.Throughput < 5e4 {
		t.Errorf("Leopard throughput %.0f too low at n=16", leo.Throughput)
	}
	if hs.Throughput < 5e4 {
		t.Errorf("HotStuff throughput %.0f too low at n=16", hs.Throughput)
	}
}

// TestLeopardBeatsHotStuffAtScale reproduces the headline crossover: at
// n=128, Leopard sustains high throughput while HotStuff's leader egress
// saturates.
func TestLeopardBeatsHotStuffAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	const n = 128
	dbSize, bftSize, hsBatch := TableII(n)
	leo, err := LeopardThroughput(n, dbSize, bftSize)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := HotStuffThroughput(n, hsBatch)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d: leopard=%.0f req/s, hotstuff=%.0f req/s, ratio=%.1f",
		n, leo.Throughput, hs.Throughput, leo.Throughput/hs.Throughput)
	if leo.Throughput < 1.5*hs.Throughput {
		t.Errorf("Leopard %.0f should clearly beat HotStuff %.0f at n=%d", leo.Throughput, hs.Throughput, n)
	}
}

// TestSelectiveAttackWithholdsFromHonestReplicas checks the §VI-D attack
// leaves honest replicas out: each attacker's datablocks reach only a bare
// quorum, so honest replicas outside it retrieve them, and the ready round
// plus retrieval keep throughput positive. At n=32 the left-out replicas'
// queries reach a holder only if they do not queue behind its datablock
// backlog.
func TestSelectiveAttackWithholdsFromHonestReplicas(t *testing.T) {
	for _, n := range []int{4, 16, 32} {
		r, err := attackOnce(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d: %.0f req/s, retrievals honest=%d attackers=%d, max skipped blocks %d",
			n, r.Throughput, r.HonestRetrievals, r.AttackerRetrievals, r.MaxSkippedBlocks)
		if r.HonestRetrievals == 0 {
			t.Errorf("n=%d: no honest replica retrieved, so the attack withheld from none", n)
		}
		if r.Throughput <= 0 {
			t.Errorf("n=%d: no throughput under the attack", n)
		}
	}
}
