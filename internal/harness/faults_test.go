package harness_test

import (
	"testing"

	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// TestSelectiveAttackFilter: an attacker's datablocks, retrieval responses
// and full blocks reach its targets only; every other message, and every
// honest sender, passes.
func TestSelectiveAttackFilter(t *testing.T) {
	const attacker, target, other, honest = types.ReplicaID(3), types.ReplicaID(1), types.ReplicaID(2), types.ReplicaID(0)
	admit := harness.SelectiveAttack([]types.ReplicaID{attacker}, []types.ReplicaID{target, attacker})
	withheld := []transport.Message{&leopard.DatablockMsg{}, &leopard.RespMsg{}, &leopard.FullBlockMsg{}}
	passed := []transport.Message{&leopard.VoteMsg{}, &leopard.ReadyMsg{}, &leopard.QueryMsg{}, &leopard.ProofMsg{}}
	cases := []struct {
		name     string
		from, to types.ReplicaID
		msgs     []transport.Message
		want     bool
	}{
		{"attacker to target", attacker, target, withheld, true},
		{"attacker to non-target", attacker, other, withheld, false},
		{"attacker to anyone, other kinds", attacker, other, passed, true},
		{"honest to non-target", honest, other, append(withheld, passed...), true},
		{"honest to attacker", honest, attacker, withheld, true},
	}
	for _, c := range cases {
		for _, msg := range c.msgs {
			if got := admit(0, c.from, c.to, msg); got != c.want {
				t.Errorf("%s: %T admitted=%v, want %v", c.name, msg, got, c.want)
			}
		}
	}
}
