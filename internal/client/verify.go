package client

import (
	"leopard/internal/crypto/edwards25519"
	"leopard/internal/types"
)

// Verifier checks client request signatures against a fixed public-key set
// by exactly crypto/ed25519.Verify's rule (edwards25519.Verify). It
// satisfies leopard.ClientVerifier. Methods are safe for concurrent use.
//
// Each client's key builds its verification tables, about 60 KB, on that
// client's first request and keeps them; that request costs about ten
// warm checks (BenchmarkVerifyRequest/cold). The key set is fixed when the
// Keychain is made, so the memory is bounded by the number of clients.
type Verifier struct {
	keys []*edwards25519.PublicKey // client ID i verifies under keys[i]
}

// VerifyRequest reports whether sig is client req.ClientID's signature over
// the canonical request digest.
func (v *Verifier) VerifyRequest(req types.Request, sig []byte) bool {
	if req.ClientID >= uint64(len(v.keys)) {
		return false
	}
	d := RequestDigest(req)
	return edwards25519.Verify(v.keys[req.ClientID], d[:], sig)
}

// VerifyRequestBatch returns VerifyRequest's verdict for each request, in
// order; a length mismatch fails every request. No replica calls it: every
// admission goes through leopard.Node.SubmitSigned, one VerifyRequest per
// request. It stays only because leopard.ClientVerifier names it.
func (v *Verifier) VerifyRequestBatch(reqs []types.Request, sigs [][]byte) []bool {
	out := make([]bool, len(reqs))
	if len(sigs) != len(reqs) {
		return out
	}
	for i := range reqs {
		out[i] = v.VerifyRequest(reqs[i], sigs[i])
	}
	return out
}
