package leopard

import (
	"testing"

	"leopard/internal/types"
)

// TestCounterLedger: contiguous executed counters fold into the floor, a gap
// keeps the counters above it, and past MaxParallel × BFTBlockSize of those
// the floor moves up to the lowest one kept without forgetting any above it.
func TestCounterLedger(t *testing.T) {
	n := newFloodTestNode(t, 0)
	n.cfg.MaxParallel, n.cfg.BFTBlockSize = 2, 2 // four counters above the floor
	const gen = types.ReplicaID(2)
	ref := func(c uint64) types.DatablockRef { return types.DatablockRef{Generator: gen, Counter: c} }
	state := func() (uint64, int) { l := n.executed[gen]; return l.floor, len(l.above) }

	if n.wasExecuted(ref(1)) {
		t.Fatal("a generator with nothing executed has a counter on record")
	}
	for c := uint64(1); c <= 3; c++ {
		n.noteExecuted(ref(c))
	}
	if floor, above := state(); floor != 4 || above != 0 {
		t.Fatalf("after 1..3: floor %d, %d above; want 4, 0", floor, above)
	}
	// Counter 4 is never executed: 5..8 wait above the gap.
	for c := uint64(5); c <= 8; c++ {
		n.noteExecuted(ref(c))
	}
	if floor, above := state(); floor != 4 || above != 4 {
		t.Fatalf("after 5..8: floor %d, %d above; want 4, 4", floor, above)
	}
	if n.wasExecuted(ref(4)) || !n.wasExecuted(ref(6)) {
		t.Fatal("the gap counts as executed, or a counter above it does not")
	}
	// 10 overflows the bound: the floor passes the gap and folds 5..8; 10
	// stays above the new gap at 9.
	n.noteExecuted(ref(10))
	if floor, above := state(); floor != 9 || above != 1 {
		t.Fatalf("after the overflow: floor %d, %d above; want 9, 1", floor, above)
	}
	if !n.wasExecuted(ref(4)) || n.wasExecuted(ref(9)) || !n.wasExecuted(ref(10)) {
		t.Fatal("after the overflow the ledger should hold 4 and 10 and not 9")
	}
	if n.wasExecuted(types.DatablockRef{Generator: 3, Counter: 1}) {
		t.Fatal("one generator's counters count for another")
	}
}
