// Package leopard is the voteahead fixture: vote-kind sends and vote-state
// records with and without the persist-before-broadcast guard.
package leopard

import "leopard/internal/transport"

type Hash [32]byte

type VoteMsg struct{ Seq uint64 }

type BFTblockMsg struct{ Seq uint64 }

type ProofMsg struct{ Seq uint64 }

type Node struct {
	voted1    bool
	voted2    bool
	vote2Lock Hash
	failed    bool
}

func (n *Node) persistVote(round int, seq uint64) bool { return !n.failed }

func (n *Node) unguardedVote(seq uint64, out transport.Sink) {
	n.voted1 = true                   // want `vote state "voted1" recorded without a preceding checked persistVote`
	n.vote2Lock = Hash{}              // want `vote state "vote2Lock" recorded without a preceding checked persistVote`
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

func (n *Node) guardedVote(seq uint64, out transport.Sink) {
	if !n.persistVote(1, seq) {
		return
	}
	n.voted1 = true
	n.vote2Lock = Hash{}
	out.Broadcast(&VoteMsg{Seq: seq})
}

func (n *Node) guardedVote2(seq uint64, out transport.Sink) {
	if !n.persistNote(seq) || !n.persistVote(2, seq) {
		return
	}
	n.voted2 = true
	out.Broadcast(&VoteMsg{Seq: seq})
}

func (n *Node) persistNote(seq uint64) bool { return !n.failed }

// relayProof broadcasts a ProofMsg, which relays others' shares and is not a
// vote kind: no guard required.
func (n *Node) relayProof(seq uint64, out transport.Sink) {
	out.Broadcast(&ProofMsg{Seq: seq})
}

// reload writes vote locks back from the durable store at startup.
//
//lint:voteahead-exempt fixture: replaying records that were persisted by a previous life
func (n *Node) reload(seq uint64) {
	n.vote2Lock = Hash{}
}
