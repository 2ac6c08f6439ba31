package client

import (
	"crypto/ed25519"
	"runtime"
	"sync"

	"leopard/internal/types"
)

// Verifier checks client request signatures against a fixed public-key set.
// It satisfies leopard.ClientVerifier. Methods are safe for concurrent use
// (the key set is immutable).
type Verifier struct {
	pubs []ed25519.PublicKey
}

// NewVerifier builds a verifier over pubs; client ID i verifies under
// pubs[i].
func NewVerifier(pubs []ed25519.PublicKey) *Verifier {
	return &Verifier{pubs: pubs}
}

// VerifyRequest reports whether sig is client req.ClientID's signature over
// the canonical request digest.
func (v *Verifier) VerifyRequest(req types.Request, sig []byte) bool {
	if req.ClientID >= uint64(len(v.pubs)) || len(sig) != ed25519.SignatureSize {
		return false
	}
	d := RequestDigest(req)
	return ed25519.Verify(v.pubs[req.ClientID], d[:], sig)
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
// The win here is parallelism, not fewer scalar multiplications: the one
// batch equation in the repository, crypto/edwards25519.VerifyBatch, takes
// signatures on one message, and admission needs a verdict per request
// (ROADMAP keeps batching admission on the same curve code as the next
// step).
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
