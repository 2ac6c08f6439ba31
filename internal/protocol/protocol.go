// Package protocol defines the protocol-agnostic replica interface shared
// by Leopard and the HotStuff baseline, so the experiment harness can drive
// either interchangeably.
package protocol

import (
	"time"

	"leopard/internal/mempool"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// ExecuteFunc receives confirmed requests in log order; sn is the decided
// slot (BFTblock serial number or chain height).
type ExecuteFunc func(sn types.SeqNum, reqs []types.Request)

// Replica is a BFT replica the harness can drive over any transport.
type Replica interface {
	transport.Node
	// SubmitSigned admits a client request signed by sig to the pending
	// pool and returns the verdict; it is the only way a request enters a
	// replica. Leopard checks sig when it has a Config.Verifier, HotStuff
	// never does.
	SubmitSigned(now time.Duration, req types.Request, sig []byte) mempool.Verdict
	// SetExecutor registers the execution callback. Must be called before
	// the node starts.
	SetExecutor(ExecuteFunc)
	// PendingRequests returns the depth of the pending-request pool.
	PendingRequests() int
	// Leader returns the current view's leader.
	Leader() types.ReplicaID
}
