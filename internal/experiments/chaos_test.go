package experiments

import (
	"strings"
	"testing"
	"time"

	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// TestChaosScenarioNoViolations sweeps the whole schedule library (plus
// the vote-ahead-enabled amnesia schedule) at n=4, 8 and 16 with the
// invariant checker armed. Any safety, durability or bounded-liveness
// violation under any plan fails the test. The crash-restart victim's
// reopened log must have read records back from the bytes its crashed
// predecessor wrote, without finding a damaged tail.
func TestChaosScenarioNoViolations(t *testing.T) {
	results, err := chaosScenario([]int{4, 8, 16}, defaultChaosParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Violations) > 0 {
			t.Errorf("n=%d plan=%s: %v", r.N, r.Plan, r.Violations)
		}
		if r.Height == 0 {
			t.Errorf("n=%d plan=%s: no execution progress at all", r.N, r.Plan)
		}
		if r.Plan != "crash-restart" {
			continue
		}
		if len(r.reopened) != 1 {
			t.Errorf("n=%d plan=%s: %d logs reopened, want 1", r.N, r.Plan, len(r.reopened))
		}
		for _, st := range r.reopened {
			if st.Loaded == 0 || st.TailTruncated {
				t.Errorf("n=%d plan=%s: reopened log loaded %d records, tail truncated %v", r.N, r.Plan, st.Loaded, st.TailTruncated)
			}
		}
	}
}

// TestChaosDeterministic runs the full n=4 schedule library twice with
// identical seeds: heights, view changes, vote-log counters and the
// traffic signature must be byte-identical.
func TestChaosDeterministic(t *testing.T) {
	p := defaultChaosParams()
	first, err := ChaosRunDigest(4, p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ChaosRunDigest(4, p)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("identically-seeded chaos runs diverged:\n  run 1: %s\n  run 2: %s", first, second)
	}
}

// TestVoteAheadAmnesiaWindow is the A/B regression for vote-ahead logging.
// The schedule crashes the leader between broadcasting a proposal (which
// embeds its first-round vote) and executing the block, then restarts it
// within the same view. Without the vote-ahead log the restarted leader
// has no memory of the vote and proposes different content at the same
// (view, seq) — round-0 equivocation at the message tap. With the log the
// reloaded lock pins the slot and the run must be violation-free.
func TestVoteAheadAmnesiaWindow(t *testing.T) {
	broken, err := chaosAmnesia(4, true, defaultChaosParams())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range broken.Violations {
		if strings.Contains(v, "equivocation") {
			found = true
		}
	}
	if !found {
		t.Errorf("vote-ahead logging disabled: expected an equivocation violation, got %v", broken.Violations)
	}

	fixed, err := chaosAmnesia(4, false, defaultChaosParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed.Violations) > 0 {
		t.Errorf("vote-ahead logging enabled: %v", fixed.Violations)
	}
	if fixed.VotesReloaded == 0 {
		t.Errorf("vote-ahead logging enabled: restarted leader reloaded no vote locks")
	}
}

// escalationTimeoutVotes runs a 4-replica cluster into a total blackout
// (every inter-replica message dropped) with pending work everywhere, and
// counts the timeout votes one replica sends to one fixed peer over the
// horizon. With no quorum ever forming, the view change escalates forever;
// the count measures how fast the replica burns views.
func escalationTimeoutVotes(t *testing.T, maxTimeout time.Duration) int {
	t.Helper()
	const n = 4
	p := defaultChaosParams()
	c, _, _, err := chaosCluster(n, p, "escalation", func(cfg *leopard.Config) {
		cfg.ViewChangeTimeout = 100 * time.Millisecond
		cfg.ViewChangeMaxTimeout = maxTimeout
	})
	if err != nil {
		t.Fatal(err)
	}
	votes := 0
	c.Net.SetFilter(func(now time.Duration, from, to types.ReplicaID, msg transport.Message) bool {
		if from == 0 && to == 1 {
			if _, ok := msg.(*leopard.TimeoutMsg); ok {
				votes++
			}
		}
		return false // total blackout
	})
	c.Start()
	for i := 0; i < n; i++ {
		c.SubmitN(types.ReplicaID(i), p.dbRequests)
	}
	c.Net.Run(10 * time.Second)
	return votes
}

// TestViewTimeoutEscalation pins the exponential view-timeout ladder: in a
// long blackout a replica with a flat 4x patience re-votes every interval,
// while the doubling ladder backs off and sends a fraction of the votes.
func TestViewTimeoutEscalation(t *testing.T) {
	vct := 100 * time.Millisecond
	flat := escalationTimeoutVotes(t, 4*vct)    // cap = initial patience: no growth
	capped := escalationTimeoutVotes(t, 16*vct) // doubling up to 16x
	if flat < 10 {
		t.Fatalf("flat patience sent only %d timeout votes in 10s; blackout harness broken?", flat)
	}
	if capped >= flat {
		t.Errorf("exponential escalation sent %d timeout votes, flat patience %d — expected strictly fewer", capped, flat)
	}
	t.Logf("timeout votes over 10s blackout: flat=%d exponential=%d", flat, capped)
}
