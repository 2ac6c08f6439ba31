package experiments

import (
	"strings"
	"testing"
	"time"
)

// testClientsParams compresses every scenario window so that two full runs
// (the determinism check) stay affordable, while still spanning a leader
// crash, a view change, the restart and plenty of post-churn traffic.
func testClientsParams() clientsParams {
	return clientsParams{
		TickEvery:    5 * time.Millisecond,
		ReplyDelay:   200 * time.Microsecond,
		Warmup:       200 * time.Millisecond,
		Measure:      1200 * time.Millisecond,
		CrashAfter:   300 * time.Millisecond,
		RestartAfter: 700 * time.Millisecond,
		Retransmit:   250 * time.Millisecond,
		VCTimeout:    150 * time.Millisecond,
	}
}

// TestClientsScenarioLiveAndDeterministic is the clients-scenario
// regression: 1000 closed-loop clients with signed requests and f+1 reply
// certificates must stay live through a leader crash/restart and a
// Byzantine reply-suppressing replica — and two identically-seeded runs
// must produce byte-identical formatted output.
func TestClientsScenarioLiveAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("clients scenario is seconds of virtual time; skipped in -short")
	}
	const clients = 1000
	p := testClientsParams()
	first, err := clientsRun(4, clients, p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	ClientsRows{first}.Print(&b)
	out := b.String()
	t.Logf("clients scenario:\n%s", out)

	if first.Accepted == 0 {
		t.Fatal("no reply certificates completed")
	}
	// Every client should turn over multiple requests despite the churn.
	if first.Accepted < clients {
		t.Errorf("accepted %d certificates, want at least one per client (%d)", first.Accepted, clients)
	}
	if first.Retransmits == 0 {
		t.Error("no retransmissions despite a leader crash and a reply-suppressing replica")
	}
	if first.FinalView < 2 {
		t.Errorf("final view %d: the leader crash never triggered a view change", first.FinalView)
	}
	if first.BadSigs != 0 || first.RateLimited != 0 {
		t.Errorf("honest clients tripped admission defenses: bad-sigs=%d rate-limited=%d",
			first.BadSigs, first.RateLimited)
	}
	if first.P99Lat < first.P50Lat || first.P50Lat <= 0 {
		t.Errorf("implausible latency percentiles: p50=%v p99=%v", first.P50Lat, first.P99Lat)
	}
	if !strings.Contains(out, "p50=") || !strings.Contains(out, "p99=") {
		t.Errorf("formatted output missing latency percentiles:\n%s", out)
	}

	second, err := clientsRun(4, clients, p)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	ClientsRows{second}.Print(&b)
	if out2 := b.String(); out != out2 {
		t.Fatalf("identically-seeded runs diverged:\n-- run 1 --\n%s\n-- run 2 --\n%s", out, out2)
	}
}
