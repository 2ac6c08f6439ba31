// Package client implements the client side of Leopard's authenticated
// serving path: deterministic per-client ed25519 keys, canonical
// signed-request digests, reply digests, request signature verification
// for replica admission, and a closed-loop Session that accepts a request
// only once f+1 replicas report the same execution result.
//
// The package depends only on types and the curve code in
// crypto/edwards25519, so both replicas
// (internal/leopard admission and reply emission) and client binaries
// (cmd/leopard-client, examples/kvstore) can share one wire contract.
package client

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"leopard/internal/crypto/edwards25519"
	"leopard/internal/types"
)

// SignatureSize is the wire size of a request signature.
const SignatureSize = ed25519.SignatureSize

// requestDomain and replyDomain separate the two signature/digest spaces so
// a request signature can never be replayed as anything else (and vice
// versa), mirroring the domain tags in internal/crypto.
const (
	requestDomain = "leopard/client-req"
	replyDomain   = "leopard/reply"
)

// RequestDigest is the canonical signing digest of a client request:
// SHA-256 over the domain tag and the big-endian client ID, sequence number
// and payload digest (req.PayloadHash). Signing or checking a request still
// hashes its whole payload once. Signing the payload's digest rather than
// the payload means once is all a signer pays (ed25519 over the payload
// itself hashes it twice), and it lets the admitting replica keep that
// digest in req.PayloadDigest and reuse it for the datablock digest
// (crypto.HashDatablock). It allocates nothing.
func RequestDigest(req types.Request) types.Hash {
	var buf [len(requestDomain) + 16 + 32]byte
	off := copy(buf[:], requestDomain)
	binary.BigEndian.PutUint64(buf[off:], req.ClientID)
	binary.BigEndian.PutUint64(buf[off+8:], req.Seq)
	payload := req.PayloadHash()
	copy(buf[off+16:], payload[:])
	return sha256.Sum256(buf[:])
}

// ReplyDigest is the digest an executing replica signs over its reply:
// it binds the request identity (client, seq) to the serial number the
// request executed at and the replica's execution result hash. f+1 valid
// reply signatures over one digest form a reply certificate.
func ReplyDigest(clientID, seq uint64, sn types.SeqNum, result types.Hash) types.Hash {
	var buf [len(replyDomain) + 24 + 32]byte
	off := copy(buf[:], replyDomain)
	binary.BigEndian.PutUint64(buf[off:], clientID)
	binary.BigEndian.PutUint64(buf[off+8:], seq)
	binary.BigEndian.PutUint64(buf[off+16:], uint64(sn))
	copy(buf[off+24:], result[:])
	return sha256.Sum256(buf[:])
}

// Keychain derives one ed25519 key pair per client from a shared seed, the
// same trusted-dealer pattern as crypto.Ed25519Suite: client i's private
// key is NewKeyFromSeed(SHA-256(seed || "client" || i)). Simulations and
// tests hand the seed to both the clients and the replicas' Verifier;
// deployments would distribute only the public keys.
type Keychain struct {
	keys     []ed25519.PrivateKey
	pubs     []ed25519.PublicKey
	verifier *Verifier
}

// NewKeychain derives n client key pairs (client IDs 0..n-1) from seed.
func NewKeychain(n int, seed []byte) (*Keychain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("client: keychain needs n > 0, got %d", n)
	}
	kc := &Keychain{
		keys: make([]ed25519.PrivateKey, n),
		pubs: make([]ed25519.PublicKey, n),
	}
	verifier := &Verifier{keys: make([]*edwards25519.PublicKey, n)}
	for i := 0; i < n; i++ {
		h := sha256.New()
		h.Write(seed)
		h.Write([]byte("client"))
		var idx [8]byte
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		h.Write(idx[:])
		kc.keys[i] = ed25519.NewKeyFromSeed(h.Sum(nil))
		kc.pubs[i] = kc.keys[i].Public().(ed25519.PublicKey)
		// A derived key is 32 bytes, the one thing NewPublicKey checks.
		verifier.keys[i], _ = edwards25519.NewPublicKey(kc.pubs[i])
	}
	kc.verifier = verifier
	return kc, nil
}

// Public returns client id's public key, or nil if id is out of range.
func (kc *Keychain) Public(id uint64) ed25519.PublicKey {
	if id >= uint64(len(kc.pubs)) {
		return nil
	}
	return kc.pubs[id]
}

// Sign signs the request under its client's key. The request's ClientID
// must be within the keychain.
func (kc *Keychain) Sign(req types.Request) ([]byte, error) {
	if req.ClientID >= uint64(len(kc.keys)) {
		return nil, fmt.Errorf("client: no key for client %d", req.ClientID)
	}
	d := RequestDigest(req)
	return ed25519.Sign(kc.keys[req.ClientID], d[:]), nil
}

// Verifier returns the request verifier over this keychain's public keys.
// It is built once and shared by every caller, so the replicas of one
// process build each client's verification tables once.
func (kc *Keychain) Verifier() *Verifier { return kc.verifier }
