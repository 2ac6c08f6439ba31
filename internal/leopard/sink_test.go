package leopard

import (
	"testing"

	"leopard/internal/crypto"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// TestHonestOutboundPathNoAlloc pins the regression the Sink redesign
// fixed: the node hands the transport's sink straight to its handlers — no
// decorator, no filtered-slice rebuild — so an idle Tick allocates nothing.
func TestHonestOutboundPathNoAlloc(t *testing.T) {
	q, err := types.NewQuorumParams(4)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewSimSuite(4, []byte("sink-test"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{ID: 2, Quorum: q, Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		n.Tick(0, transport.Discard)
	})
	if allocs != 0 {
		t.Fatalf("idle honest Tick allocated %.1f/op, want 0", allocs)
	}
}
