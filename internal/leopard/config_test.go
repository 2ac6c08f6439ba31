package leopard

import (
	"strings"
	"testing"

	"leopard/internal/crypto"
	"leopard/internal/types"
)

// TestValidateRefusesRotation: the rotating-leader schedule is gone, and a
// config that still asks for it must fail loudly rather than run the fixed
// leader with the caller expecting every replica to pack.
func TestValidateRefusesRotation(t *testing.T) {
	q, err := types.NewQuorumParams(4)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewSimSuite(4, []byte("config-test"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ID: 0, Quorum: q, Suite: suite}
	if _, err := NewNode(cfg); err != nil {
		t.Fatalf("fixed-leader config refused: %v", err)
	}
	cfg.RotateLeaders = true
	if _, err := NewNode(cfg); err == nil || !strings.Contains(err.Error(), "RotateLeaders is removed") {
		t.Fatalf("NewNode with RotateLeaders: err = %v, want one naming the removal", err)
	}
}
