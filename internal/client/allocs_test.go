//go:build !race

package client

import (
	"testing"

	"leopard/internal/types"
)

// TestVerifyAllocs: the digest is built on the stack, and a check on a
// warm key allocates at most one object.
func TestVerifyAllocs(t *testing.T) {
	kc := testKeychain(t, 1)
	req := types.Request{ClientID: 0, Seq: 1, Payload: make([]byte, 128)}
	sig, err := kc.Sign(req)
	if err != nil {
		t.Fatal(err)
	}
	v := kc.Verifier()
	if !v.VerifyRequest(req, sig) {
		t.Fatal("valid signature rejected")
	}
	if n := testing.AllocsPerRun(100, func() { RequestDigest(req) }); n != 0 {
		t.Errorf("RequestDigest allocates %v objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { v.VerifyRequest(req, sig) }); n > 1 {
		t.Errorf("VerifyRequest allocates %v objects per call, want at most 1", n)
	}
}
