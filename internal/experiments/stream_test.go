package experiments

import (
	"testing"
	"time"
)

// testStreamParams shrinks the stream scenario so the regression runs in
// seconds: ~70 KiB datablocks, a 10 Mbps slow receiver on 100 Mbps links
// and a 32 KiB credit window.
func testStreamParams() streamParams {
	return streamParams{
		dbRequests: 512,
		blocksPer:  3,
		linkBps:    100e6,
		slowBps:    10e6,
		window:     32 << 10,
		chunk:      8 << 10,
		parkBudget: 8 << 20,
		timeout:    90 * time.Second,
	}
}

// TestStreamScenarioParksWithoutLoss is the acceptance regression for the
// streamed bulk lane: with one slow receiver under a datablock fan-out,
// the run must complete with zero bulk drops and no retrieval repair, in
// under a second of virtual time at this sizing (380 ms when recorded; the
// deleted drop-on-overflow baseline needed 4.23 s and two retrievals).
func TestStreamScenarioParksWithoutLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	stream, err := streamOnce(4, testStreamParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stream: %+v", stream)

	// The run parks instead of dropping: every datablock arrives by
	// dissemination, so no transport loss and no repair traffic.
	if stream.BulkDrops != 0 {
		t.Errorf("dropped %d bulk frames, want 0", stream.BulkDrops)
	}
	if stream.Retrievals != 0 {
		t.Errorf("needed %d retrievals, want 0", stream.Retrievals)
	}
	// The backlog it parked instead must be visible — and bounded by the
	// park budget.
	if stream.PeakQueuedBytes == 0 {
		t.Error("recorded no parked backlog despite the slow receiver")
	}
	if stream.PeakQueuedBytes > testStreamParams().parkBudget {
		t.Errorf("parked %d bytes over the %d budget", stream.PeakQueuedBytes, testStreamParams().parkBudget)
	}
	if stream.Converged >= time.Second {
		t.Errorf("converged in %v, want < 1s", stream.Converged)
	}
}
