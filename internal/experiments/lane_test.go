package experiments

import (
	"testing"
	"time"
)

// TestViewChangeUnderBulkLanesWin is the simnet half of the lane-priority
// regression: with every link saturated by datablock traffic, view-change
// convergence at n=8 must stay within 10 ms — the control path does not
// queue behind megabytes of bulk (2 ms when recorded; the deleted
// single-FIFO baseline took 431 ms). The simulation is deterministic, so
// the bound is stable.
func TestViewChangeUnderBulkLanesWin(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	laned, err := vcUnderBulkOnce(8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=8 laned=%v", laned)
	if laned <= 0 {
		t.Fatal("view change did not converge")
	}
	if laned > 10*time.Millisecond {
		t.Errorf("view change converged in %v under bulk load, want <= 10ms", laned)
	}
}
