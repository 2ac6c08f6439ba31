package experiments

import (
	"testing"
	"time"
)

// fastRecoverParams shrinks the scenario for the regression suite.
func fastRecoverParams() recoverParams {
	return recoverParams{
		dbRequests:  50,
		bftSize:     2,
		maxParallel: 16,
		checkpoint:  8,
		loadEvery:   20 * time.Millisecond,
		crashAt:     300 * time.Millisecond,
		restartAt:   1100 * time.Millisecond,
		loadUntil:   1200 * time.Millisecond,
		deadline:    20 * time.Second,
		seed:        1,
	}
}

// TestRecoverScenarioRegression is the recover-scenario gate: the restarted
// replica must reach the cluster's executed height via WAL replay + state
// transfer — with zero agreement re-votes for the transferred range and
// zero per-datablock retrievals. (The deleted no-state-transfer baseline
// never caught up: its executed prefix is garbage-collected cluster-wide.)
func TestRecoverScenarioRegression(t *testing.T) {
	p := fastRecoverParams()

	r, err := recoverOnce(4, p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CaughtUp {
		t.Fatalf("victim did not catch up: %+v", r)
	}
	if r.BlocksReplayed == 0 {
		t.Errorf("expected WAL replay at restart, got none: %+v", r)
	}
	if r.StateBlocks == 0 {
		t.Errorf("expected state-transfer blocks, got none: %+v", r)
	}
	if r.ReVotes != 0 {
		t.Errorf("restarted replica re-voted %d times in the transferred range", r.ReVotes)
	}
	if r.Retrievals != 0 {
		t.Errorf("restarted replica fell back to %d per-datablock retrievals", r.Retrievals)
	}
	if r.CatchupTime <= 0 || r.CatchupTime > 10*time.Second {
		t.Errorf("catch-up time out of bounds: %v", r.CatchupTime)
	}
}

// TestRecoverScenarioDeterministic asserts two identically-seeded
// runs are byte-identical — counters, timings and the full per-replica
// traffic signature.
func TestRecoverScenarioDeterministic(t *testing.T) {
	p := fastRecoverParams()
	a, err := RecoverRunDigest(4, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecoverRunDigest(4, p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identically-seeded runs diverged:\n run A: %s\n run B: %s", a, b)
	}
}
