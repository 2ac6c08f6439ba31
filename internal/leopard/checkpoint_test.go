package leopard

import (
	"slices"
	"testing"

	"leopard/internal/transport"
	"leopard/internal/types"
)

// TestCheckpointShareOnAnotherStateCannotPoisonTheTally: the collector files
// checkpoint shares per state, one per sender. With 2f+1 honest shares on one
// state and one Byzantine share on another, wherever it falls in the arrival
// order, the stable checkpoint forms from the honest ones. Filed per seq alone
// the Byzantine share sat among the 2f+1 handed to Combine and failed every
// attempt, so no checkpoint formed and the cluster halted at a full window.
func TestCheckpointShareOnAnotherStateCannotPoisonTheTally(t *testing.T) {
	const seq = types.SeqNum(50)
	honestState, wrongState := types.Hash{0xaa}, types.Hash{0xbb}
	for byzantineAt := 0; byzantineAt < 4; byzantineAt++ {
		leader := types.LeaderOf(1, 4)
		n := newFloodTestNode(t, leader)
		const byzantine = types.ReplicaID(0)
		// The leader's own share arrives like the others.
		order := slices.Insert([]types.ReplicaID{1, 2, 3}, byzantineAt, byzantine)

		var sent transport.SliceSink
		for _, from := range order {
			state := honestState
			if from == byzantine {
				state = wrongState
			}
			share, err := n.suite.Sign(from, CheckpointDigest(seq, state))
			if err != nil {
				t.Fatal(err)
			}
			n.Deliver(0, from, &CheckpointMsg{Seq: seq, StateHash: state, Share: share}, &sent)
		}

		var proofs []*CheckpointProofMsg
		for _, env := range sent.Envelopes {
			if cp, ok := env.Msg.(*CheckpointProofMsg); ok {
				proofs = append(proofs, cp)
			}
		}
		if len(proofs) != 1 {
			t.Fatalf("Byzantine share at position %d: %d CheckpointProofMsg sent, want 1", byzantineAt, len(proofs))
		}
		cp := proofs[0]
		if cp.Seq != seq || cp.StateHash != honestState {
			t.Fatalf("Byzantine share at position %d: checkpoint certifies (%d, %x), want the honest state", byzantineAt, cp.Seq, cp.StateHash[:2])
		}
		if err := n.suite.VerifyProof(CheckpointDigest(seq, honestState), cp.Proof); err != nil {
			t.Fatalf("Byzantine share at position %d: %v", byzantineAt, err)
		}
		if n.lw != seq {
			t.Fatalf("Byzantine share at position %d: watermark at %d, want %d", byzantineAt, n.lw, seq)
		}
	}
}
