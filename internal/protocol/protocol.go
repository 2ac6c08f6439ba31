// Package protocol defines the protocol-agnostic replica interface shared
// by Leopard and the HotStuff baseline, so the experiment harness can drive
// either interchangeably.
package protocol

import (
	"time"

	"leopard/internal/transport"
	"leopard/internal/types"
)

// ExecuteFunc receives confirmed requests in log order; sn is the decided
// slot (BFTblock serial number or chain height).
type ExecuteFunc func(sn types.SeqNum, reqs []types.Request)

// Replica is a BFT replica the harness can drive over any transport.
type Replica interface {
	transport.Node
	// SubmitRequest adds a client request to the replica's pending pool.
	SubmitRequest(now time.Duration, req types.Request) bool
	// SetExecutor registers the execution callback. Must be called before
	// the node starts.
	SetExecutor(ExecuteFunc)
	// PendingRequests returns the depth of the pending-request pool.
	PendingRequests() int
	// Leader returns the current view's leader.
	Leader() types.ReplicaID
}
