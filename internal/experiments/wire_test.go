package experiments

import (
	"slices"
	"testing"

	"leopard/internal/types"
)

// TestWireFidelityExecutesAlike runs the seeded chaos plans at n=4 and
// n=8, and the crash/restart with state transfer, twice: once delivering
// every message by reference, once round-tripping it through
// leopard.WireCodec, so every received datablock borrows from a pool frame
// that goes back to the transport frame pool when the datablock is
// released. Both runs must be violation-free, every log must serve records
// whose datablocks still match their links, and every replica must end in
// the same execution state. Under -tags framepoison a returned frame is
// overwritten with poison, so anything that reads a datablock's bytes after
// its release breaks one of those checks.
func TestWireFidelityExecutesAlike(t *testing.T) {
	for _, n := range []int{4, 8} {
		q, err := types.NewQuorumParams(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range chaosPlans(q, 1) {
			var runs [2]ChaosResult
			for i, wire := range []bool{false, true} {
				p := defaultChaosParams()
				p.wire = wire
				r, err := chaosOnce(q, plan, p)
				if err != nil {
					t.Fatalf("n=%d plan=%s wire=%v: %v", n, plan.Name, wire, err)
				}
				if len(r.Violations) > 0 {
					t.Errorf("n=%d plan=%s wire=%v: %v", n, plan.Name, wire, r.Violations)
				}
				runs[i] = r
			}
			if !slices.Equal(runs[0].states, runs[1].states) {
				t.Errorf("n=%d plan=%s: execution states differ over the wire codec", n, plan.Name)
			}
		}
	}

	var runs [2]RecoverResult
	for i, wire := range []bool{false, true} {
		p := fastRecoverParams()
		p.wire = wire
		r, err := recoverOnce(4, p)
		if err != nil {
			t.Fatalf("recover wire=%v: %v", wire, err)
		}
		if !r.CaughtUp || r.StateBlocks == 0 {
			t.Errorf("recover wire=%v: caught up %v with %d state-transfer blocks", wire, r.CaughtUp, r.StateBlocks)
		}
		runs[i] = r
	}
	if !slices.Equal(runs[0].states, runs[1].states) {
		t.Error("recover: execution states differ over the wire codec")
	}
}
