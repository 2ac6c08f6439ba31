package harness_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/protocol"
	"leopard/internal/simnet"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// runFingerprint runs a full Leopard cluster under load (with jitter, so
// the seeded RNG is actually exercised) and returns every replica's
// bandwidth counters plus a rendering of its protocol counters. streaming
// shrinks the bulk lane's chunk and credit window below the datablock size,
// where the defaults would ship every datablock as one chunk.
func runFingerprint(t *testing.T, seed int64, streaming bool) ([]simnet.Bandwidth, []string) {
	t.Helper()
	const n = 7
	q, err := types.NewQuorumParams(n)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewSimSuite(n, []byte("determinism"))
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.DefaultConfig()
	net.Seed = seed
	net.Jitter = 200 * time.Microsecond
	net.TickInterval = 2 * time.Millisecond
	if streaming {
		// A small window and chunk relative to the ~3 KiB datablocks so
		// the run actually exercises chunk interleaving, parking and
		// credit grants, not just single-chunk streams.
		net.Stream = transport.StreamConfig{
			ChunkSize:       1024,
			StreamThreshold: 1024,
			CreditWindow:    8 << 10,
			ParkBudget:      1 << 20,
		}
	}
	c, err := harness.NewCluster(harness.Options{
		N:               n,
		Net:             net,
		PayloadSize:     64,
		SaturationDepth: 100,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			return leopard.NewNode(leopard.Config{
				ID:            id,
				Quorum:        q,
				Suite:         suite,
				DatablockSize: 25,
				BFTBlockSize:  3,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Net.Run(400 * time.Millisecond)

	bw := make([]simnet.Bandwidth, n)
	protoStats := make([]string, n)
	for i := 0; i < n; i++ {
		bw[i] = *c.Net.Stats(types.ReplicaID(i))
		node := c.Replicas[i].(*leopard.Node)
		st := node.Stats()
		protoStats[i] = fmt.Sprintf(
			"confirmed=%d blocks=%d executed=%d made=%d held=%d retr=%d vc=%d view=%d execTo=%d",
			st.ConfirmedRequests, st.ConfirmedBlocks, st.ExecutedBlocks,
			st.DatablocksMade, st.DatablocksHeld, st.Retrievals,
			st.ViewChanges, st.View, node.ExecutedTo())
	}
	return bw, protoStats
}

// TestDeterministicStatsAcrossRuns asserts the simnet Sink's determinism
// contract at the protocol level: two full-cluster runs with the same seed
// produce byte-identical bandwidth accounting and protocol counters at
// every replica, while a different seed (with jitter active) diverges.
func TestDeterministicStatsAcrossRuns(t *testing.T) {
	bw1, st1 := runFingerprint(t, 42, false)
	bw2, st2 := runFingerprint(t, 42, false)
	if !reflect.DeepEqual(bw1, bw2) {
		t.Fatal("bandwidth stats differ across identically-seeded runs")
	}
	for i := range st1 {
		if st1[i] != st2[i] {
			t.Fatalf("replica %d protocol stats differ:\n run1: %s\n run2: %s", i, st1[i], st2[i])
		}
	}
	// Sanity: the fingerprint reflects real work, not an idle cluster.
	if bw1[0].Total() == 0 {
		t.Fatal("fingerprint run did no work")
	}
}

// TestDeterministicStatsWithStreaming extends the determinism guarantee
// to a bulk lane that actually chunks and parks: the per-pair chunk schedules,
// credit grants and park/resume cycles are all heap events, so two
// identically-seeded streaming runs must stay byte-identical too.
func TestDeterministicStatsWithStreaming(t *testing.T) {
	bw1, st1 := runFingerprint(t, 42, true)
	bw2, st2 := runFingerprint(t, 42, true)
	if !reflect.DeepEqual(bw1, bw2) {
		t.Fatal("bandwidth stats differ across identically-seeded streaming runs")
	}
	for i := range st1 {
		if st1[i] != st2[i] {
			t.Fatalf("replica %d protocol stats differ:\n run1: %s\n run2: %s", i, st1[i], st2[i])
		}
	}
	if bw1[0].Total() == 0 {
		t.Fatal("fingerprint run did no work")
	}
	// The streaming fingerprint must actually have streamed: credit
	// grants show up as ClassMisc traffic.
	var misc int64
	for i := range bw1 {
		misc += bw1[i].Sent[transport.ClassMisc]
	}
	if misc == 0 {
		t.Fatal("streaming run granted no credits: flow control not exercised")
	}
}
