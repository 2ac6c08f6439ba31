package leopard_test

import (
	"fmt"
	"testing"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/types"
)

// verifyCounter decorates a Suite and counts the verifications that reach
// it. A VerifyProof of the ed25519 suite checks its 2f+1 signatures as one
// batch: one multi-scalar multiplication (crypto/edwards25519.VerifyBatch).
type verifyCounter struct {
	crypto.Suite
	shares, proofs int
}

func (c *verifyCounter) VerifyShare(d types.Hash, s crypto.Share) error {
	c.shares++
	return c.Suite.VerifyShare(d, s)
}

func (c *verifyCounter) VerifyProof(d types.Hash, p crypto.Proof) error {
	c.proofs++
	return c.Suite.VerifyProof(d, p)
}

// block runs one block of one request to confirmation: replica 0 packs the
// request at the first tick, the leader proposes at the second, and each
// flush runs agreement to the end.
func (r *router) block(i int) {
	r.submit(0, 1, uint64(i))
	r.next()
	r.next()
}

// BenchmarkAgreementBlock measures what one BFTblock costs the whole
// cluster in agreement, whatever it links: the proposal, 2f+1 σ1 votes, the
// σ1 proof at every replica, σ2 votes and the σ2 proof, each through the
// real Deliver with the real signature suite, on one goroutine. It is the
// per-block cost that requests per block divides (README, "Batching is
// clocked by confirmations"). The block links one datablock of one request,
// so its dissemination, ready round and execution ride along at a few
// microseconds, and every fiftieth block adds a checkpoint.
func BenchmarkAgreementBlock(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var suite *verifyCounter
			r := newRouter(b, n, func(c *leopard.Config) {
				if suite == nil {
					suite = &verifyCounter{Suite: c.Suite}
				}
				c.Suite = suite
			})
			r.block(0)
			suite.shares, suite.proofs = 0, 0
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				r.block(i)
			}
			b.StopTimer()
			if got := r.nodes[n-1].Stats().ConfirmedBlocks; got != int64(b.N+1) {
				b.Fatalf("%d blocks confirmed, want one per iteration (%d)", got, b.N+1)
			}
			b.ReportMetric(float64(suite.shares)/float64(b.N), "VerifyShare/block")
			b.ReportMetric(float64(suite.proofs)/float64(b.N), "VerifyProof/block")
		})
	}
}

// TestAgreementCryptoPerBlock pins the signature work one confirmed block
// costs a replica through the real ed25519 suite: Sign, VerifyShare and
// VerifyProof calls per block at view 1's leader and at a follower, at n=4
// and n=16. Each replica signs its σ1 and σ2 votes; the leader verifies the
// 2f foreign shares of each round that reach its 2f+1 (later ones are
// dropped unverified) and no proof, a follower the leader's share in the
// proposal and both proofs. The blocks are BenchmarkAgreementBlock's, none
// ends a checkpoint period and no reply sink is installed, so the counts are
// agreement's alone.
func TestAgreementCryptoPerBlock(t *testing.T) {
	type work struct{ sign, verifyShare, verifyProof int }
	for _, tc := range []struct {
		n                int
		leader, follower work
	}{
		{n: 4, leader: work{2, 4, 0}, follower: work{2, 1, 2}},
		{n: 16, leader: work{2, 20, 0}, follower: work{2, 1, 2}},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			signs := make([]*leopard.SignCounter, tc.n)
			verifies := make([]*verifyCounter, tc.n)
			r := newRouter(t, tc.n, func(c *leopard.Config) {
				signs[c.ID] = &leopard.SignCounter{Suite: c.Suite}
				verifies[c.ID] = &verifyCounter{Suite: signs[c.ID]}
				c.Suite = verifies[c.ID]
			})
			r.block(0)
			for i := range signs {
				signs[i].Signs, verifies[i].shares, verifies[i].proofs = 0, 0, 0
			}
			const blocks = 10
			for i := 1; i <= blocks; i++ {
				r.block(i)
			}
			if got := r.nodes[tc.n-1].Stats().ConfirmedBlocks; got != blocks+1 {
				t.Fatalf("%d blocks confirmed, want %d", got, blocks+1)
			}
			for _, role := range []struct {
				name string
				id   types.ReplicaID
				want work
			}{
				{"leader", types.LeaderOf(1, tc.n), tc.leader},
				{"follower", types.ReplicaID(tc.n - 1), tc.follower},
			} {
				got := work{signs[role.id].Signs, verifies[role.id].shares, verifies[role.id].proofs}
				want := work{blocks * role.want.sign, blocks * role.want.verifyShare, blocks * role.want.verifyProof}
				if got != want {
					t.Errorf("%s %d over %d blocks: Sign/VerifyShare/VerifyProof %v, want %v",
						role.name, role.id, blocks, got, want)
				}
			}
		})
	}
}
