package leopard

import (
	"leopard/internal/crypto"
	"leopard/internal/types"
)

// What the leopard_test package needs from inside this one.

// The digests the view-change messages sign, for tests that re-sign them.
var (
	TimeoutDigest    = timeoutDigest
	ViewChangeDigest = viewChangeDigest
	NewViewDigest    = newViewDigest
)

// SignCounter decorates a Suite and counts the Sign calls that reach it,
// as the benchmark's traced suite does.
type SignCounter struct {
	crypto.Suite
	Signs int
}

func (c *SignCounter) Sign(signer types.ReplicaID, digest types.Hash) (crypto.Share, error) {
	c.Signs++
	return c.Suite.Sign(signer, digest)
}

// OwnOutstanding is the number of this replica's own datablocks it still
// counts as unconfirmed: the window, and the clock for partial datablocks.
func (n *Node) OwnOutstanding() int { return len(n.myOutstanding) }

// HasPendingWork is what arms the view-change timer.
func (n *Node) HasPendingWork() bool { return n.hasPendingWork() }

// AgreementState hands the resource audit everything this replica holds per
// view, per serial number and per datablock, by name, to walk by
// reflection.
func (n *Node) AgreementState() map[string]any {
	return map[string]any{
		"view":          n.cur,
		"slots":         n.slots,
		"datablocks":    n.datablocks,
		"refs":          n.refs,
		"executed":      n.executed,
		"missing":       n.missing,
		"myOutstanding": n.myOutstanding,
	}
}

// Retrieving reports whether the replica keeps a retrieval entry for h.
func (n *Node) Retrieving(h types.Hash) bool {
	_, ok := n.missing[h]
	return ok
}
