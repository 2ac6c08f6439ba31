package leopard

import (
	"fmt"
	"testing"

	"leopard/internal/hotstuff"
	"leopard/internal/transport"
)

// TestTrafficPolicies pins every message type's accounting class and
// traffic policy — its lane, and whether the receiver's CPU stage charges
// its bytes — for the whole Leopard wire surface, HotStuff's messages and
// the transport's own credit grant.
func TestTrafficPolicies(t *testing.T) {
	type policy struct {
		class   transport.Class
		lane    transport.Lane
		charged bool
	}
	const (
		control = transport.LaneControl
		bulk    = transport.LaneBulk
	)
	want := map[string]policy{
		"*leopard.DatablockMsg":       {transport.ClassDatablock, bulk, true},
		"*leopard.ReadyMsg":           {transport.ClassVote, control, false},
		"*leopard.BFTblockMsg":        {transport.ClassBFTblock, control, false},
		"*leopard.VoteMsg":            {transport.ClassVote, control, false},
		"*leopard.ProofMsg":           {transport.ClassProof, control, false},
		"*leopard.QueryMsg":           {transport.ClassRetrieval, control, false},
		"*leopard.RespMsg":            {transport.ClassRetrieval, bulk, true},
		"*leopard.FullBlockMsg":       {transport.ClassRetrieval, bulk, true},
		"*leopard.CheckpointMsg":      {transport.ClassCheckpoint, control, false},
		"*leopard.CheckpointProofMsg": {transport.ClassCheckpoint, control, false},
		"*leopard.TimeoutMsg":         {transport.ClassViewChange, control, false},
		"*leopard.ViewChangeMsg":      {transport.ClassViewChange, control, true},
		"*leopard.NewViewMsg":         {transport.ClassViewChange, control, true},
		"*leopard.StateReqMsg":        {transport.ClassState, control, false},
		"*leopard.StateRespMsg":       {transport.ClassState, bulk, true},
		"*leopard.RequestMsg":         {transport.ClassRequest, bulk, true},
		"*leopard.ReplyMsg":           {transport.ClassAck, control, false},
		"*hotstuff.ProposalMsg":       {transport.ClassBFTblock, bulk, true},
		"*hotstuff.VoteMsg":           {transport.ClassVote, control, false},
		"*transport.CreditMsg":        {transport.ClassMisc, control, false},
	}
	msgs := append(testMessages(),
		&hotstuff.ProposalMsg{}, &hotstuff.VoteMsg{},
		&transport.CreditMsg{})
	for _, m := range msgs {
		name := fmt.Sprintf("%T", m)
		w, ok := want[name]
		if !ok {
			t.Errorf("%s has no row: state its policy here", name)
			continue
		}
		delete(want, name)
		p := m.Policy()
		if got := (policy{m.Class(), p.Lane(), p.Charged()}); got != w {
			t.Errorf("%s: (class, lane, charged) = (%v, %v, %v), want (%v, %v, %v)",
				name, got.class, got.lane, got.charged, w.class, w.lane, w.charged)
		}
	}
	for name := range want {
		t.Errorf("row %s matches no message", name)
	}
}
