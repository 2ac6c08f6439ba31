package client

import (
	"crypto/ed25519"
	"testing"

	"leopard/internal/crypto/edwards25519"
	"leopard/internal/types"
)

// benchBatch builds size signed requests across clients clients.
func benchBatch(b *testing.B, clients, size int) (*Keychain, []types.Request, [][]byte) {
	b.Helper()
	kc, err := NewKeychain(clients, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]types.Request, size)
	sigs := make([][]byte, size)
	payload := make([]byte, 128)
	for i := range reqs {
		reqs[i] = types.Request{ClientID: uint64(i % clients), Seq: uint64(i), Payload: payload}
		sigs[i], err = kc.Sign(reqs[i])
		if err != nil {
			b.Fatal(err)
		}
	}
	return kc, reqs, sigs
}

// BenchmarkVerifyRequest is one admission check at a time, round robin over
// 1024 clients whose tables are built before the timer starts; stdlib is
// the same loop on crypto/ed25519.Verify, the reference, and cold checks
// under a fresh key each time, so it is what a client's first request
// costs, its tables included.
func BenchmarkVerifyRequest(b *testing.B) {
	const clients = 1024
	kc, reqs, sigs := benchBatch(b, clients, clients)
	v := kc.Verifier()
	for j := range reqs {
		if !v.VerifyRequest(reqs[j], sigs[j]) {
			b.Fatal("verify failed")
		}
	}
	run := func(b *testing.B, verify func(j int) bool) {
		b.ReportAllocs()
		j := 0
		for b.Loop() {
			if !verify(j) {
				b.Fatal("verify failed")
			}
			j = (j + 1) % clients
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/sig")
	}
	b.Run("tables", func(b *testing.B) {
		run(b, func(j int) bool { return v.VerifyRequest(reqs[j], sigs[j]) })
	})
	b.Run("stdlib", func(b *testing.B) {
		run(b, func(j int) bool {
			d := RequestDigest(reqs[j])
			return ed25519.Verify(kc.Public(reqs[j].ClientID), d[:], sigs[j])
		})
	})
	b.Run("cold", func(b *testing.B) {
		run(b, func(j int) bool {
			d := RequestDigest(reqs[j])
			key, _ := edwards25519.NewPublicKey(kc.Public(reqs[j].ClientID))
			return edwards25519.Verify(key, d[:], sigs[j])
		})
	})
}
