package obs

import (
	"math"
	"testing"
	"time"
)

func TestStageTimer(t *testing.T) {
	var s StageTimer
	s.Add("dissemination", 500*time.Millisecond)
	s.Add("agreement", 300*time.Millisecond)
	s.Add("dissemination", 200*time.Millisecond)

	if got := s.Total(); got != time.Second {
		t.Errorf("Total = %v", got)
	}
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by name: agreement then dissemination.
	if rows[0].Stage != "agreement" || math.Abs(rows[0].Percent-30) > 1e-9 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Stage != "dissemination" || math.Abs(rows[1].Percent-70) > 1e-9 {
		t.Errorf("row 1 = %+v", rows[1])
	}
}

func TestStageTimerEmpty(t *testing.T) {
	var s StageTimer
	if s.Total() != 0 {
		t.Error("empty total must be 0")
	}
	if rows := s.Rows(); len(rows) != 0 {
		t.Errorf("empty rows = %v", rows)
	}
}
