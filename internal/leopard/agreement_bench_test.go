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
			block := func(i int) {
				r.submit(0, 1, uint64(i))
				r.next() // replica 0 packs
				r.next() // the leader proposes
			}
			block(0)
			suite.shares, suite.proofs = 0, 0
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				block(i)
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
