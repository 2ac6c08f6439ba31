package client

import (
	"runtime"
	"sync"

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

// batchParallelMin is the batch size below which VerifyRequestBatch runs
// sequentially: goroutine fan-out costs more than it saves under ~32
// signatures (see BenchmarkVerifyBatch).
const batchParallelMin = 32

// VerifyRequestBatch verifies a batch of request signatures and returns one
// verdict per request, in order. Batches of batchParallelMin or more are
// fanned out across GOMAXPROCS workers on contiguous chunks; results are
// positionally indexed, so the output is identical to the sequential path.
// Replica admission uses this to amortize signature checking across the
// requests that arrive between two events.
//
// The win here is parallelism, not fewer scalar multiplications: each
// check is VerifyRequest's, cheap because of the per-client tables. A
// batch equation over many messages was measured against those checks: it
// saves 7–13 % per signature, too little for the asynchronous admission
// contract and the cofactored rule it would need.
func (v *Verifier) VerifyRequestBatch(reqs []types.Request, sigs [][]byte) []bool {
	out := make([]bool, len(reqs))
	if len(sigs) != len(reqs) {
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if len(reqs) < batchParallelMin || workers < 2 {
		for i := range reqs {
			out[i] = v.VerifyRequest(reqs[i], sigs[i])
		}
		return out
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var wg sync.WaitGroup
	chunk := (len(reqs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(reqs) {
			hi = len(reqs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = v.VerifyRequest(reqs[i], sigs[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
