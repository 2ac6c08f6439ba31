// Package leopard is the voteahead fixture: vote-kind sends and vote-state
// records with and without the persist-before-broadcast guard.
package leopard

import "leopard/internal/transport"

type Hash [32]byte

type VoteMsg struct{ Seq uint64 }

type BFTblockMsg struct{ Seq uint64 }

type ProofMsg struct{ Seq uint64 }

type round struct {
	voted bool
	lock  Hash
}

type Node struct {
	rounds [2]round
	failed bool
}

func (n *Node) persistVote(round int, seq uint64) bool { return !n.failed }

func (n *Node) persistNote(seq uint64) bool { return !n.failed }

func (n *Node) unguardedVote(seq uint64, out transport.Sink) {
	r := &n.rounds[0]
	r.voted = true                    // want `vote state "voted" recorded without a preceding checked persistVote`
	n.rounds[1].lock = Hash{}         // want `vote state "lock" recorded without a preceding checked persistVote`
	out.Broadcast(&VoteMsg{Seq: seq}) // want `\*VoteMsg put on the Sink without a preceding checked persistVote`
}

func (n *Node) unguardedProposal(seq uint64, out transport.Sink) {
	out.Broadcast(&BFTblockMsg{Seq: seq}) // want `\*BFTblockMsg put on the Sink without a preceding checked persistVote`
}

// uncheckedPersist calls persistVote but ignores its result, so the send is
// not covered: a failed append must abort the path, not just log.
func (n *Node) uncheckedPersist(seq uint64, out transport.Sink) {
	n.persistVote(1, seq)
	out.Broadcast(&VoteMsg{Seq: seq}) // want `\*VoteMsg put on the Sink without a preceding checked persistVote`
}

// sendAboveGuard lets the vote go before the guard that should cover it.
func (n *Node) sendAboveGuard(seq uint64, out transport.Sink) {
	out.Send(transport.Envelope{Msg: &VoteMsg{Seq: seq}}) // want `\*VoteMsg put on the Sink without a preceding checked persistVote`
	if !n.persistVote(1, seq) {
		return
	}
	n.rounds[0].voted = true
}

// vote is the guarded vote path: round 2 stages its note before the vote
// record, and a round-1 vote of the leader leaves in its proposal.
func (n *Node) vote(k int, seq uint64, leader bool, out transport.Sink) {
	r := &n.rounds[k-1]
	if k == 2 && !n.persistNote(seq) || !n.persistVote(k, seq) {
		return
	}
	r.voted = true
	if !leader {
		out.Send(transport.Envelope{Msg: &VoteMsg{Seq: seq}})
		return
	}
	if k == 1 {
		out.Broadcast(&BFTblockMsg{Seq: seq})
	}
}

// relayProof broadcasts a ProofMsg, which relays others' shares and is not a
// vote kind: no guard required.
func (n *Node) relayProof(seq uint64, out transport.Sink) {
	out.Broadcast(&ProofMsg{Seq: seq})
}

// reload writes vote locks back from the durable store at startup.
//
//lint:voteahead-exempt fixture: replaying records that were persisted by a previous life
func (n *Node) reload(seq uint64) {
	n.rounds[1].lock = Hash{}
}
