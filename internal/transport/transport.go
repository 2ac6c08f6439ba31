// Package transport defines the message-passing abstractions shared by the
// network simulator (internal/simnet) and the real TCP transport.
//
// Protocol nodes are event-driven state machines driven through a
// push-based outbound API: the transport hands every event handler a Sink,
// and the node emits its outbound envelopes into it as it processes the
// event. This replaces the older pull-style API in which every handler
// returned a []Envelope slice — the push model eliminates the per-event
// slice churn, lets a transport start transmitting the first envelope
// before the handler finishes, and gives the transport an explicit
// scheduling signal per envelope (its message's lane) instead of one
// undifferentiated queue.
//
// # Sink contract
//
// A Sink accepts envelopes in the order the node emits them. Control-lane
// delivery preserves that order per (sender, receiver): the protocol relies
// on per-pair FIFO for the metadata consensus path. Bulk-lane envelopes are
// streamed (see "Bulk streaming" below): each envelope arrives intact and
// chunks of one envelope stay ordered, but two bulk envelopes to the same
// peer may complete out of emission order because their streams interleave
// on the wire — bulk consumers must be (and in this codebase are)
// order-independent, addressing payloads by digest.
//
// Send never blocks the calling node for an unbounded time and never
// reports failure. A transport under bulk pressure parks envelopes under
// credit-based per-peer flow control (StreamConfig) rather than dropping
// them; only when a peer stops granting credit for long enough that the
// park budget fills are the oldest parked envelopes evicted — and in the
// extreme control drops too (its queues are deep, but a long-unreachable
// peer can fill them). The protocol must therefore still treat every send
// as best-effort and recover evicted traffic through its own timers
// (retrieval, re-query, view change); flow control makes that recovery
// path rare instead of routine. The Sink passed to a handler is only valid
// for the duration of that call; nodes must not retain it.
//
// # Bulk streaming and flow control
//
// Large bulk envelopes are split into fixed-size stream chunks
// (StreamHeader: stream id, offset, total, fin) and interleaved fairly
// across the streams queued to one peer, so a newly emitted bulk envelope
// starts flowing without waiting for megabytes of earlier bulk to finish.
// Receivers reassemble chunks (Reassembler) before decoding and grant
// byte credits back on the control lane (CreditMsg) as they consume;
// senders debit their per-peer credit window per chunk and park at zero
// credit. StreamConfig holds the shared policy — chunk size, split
// threshold, credit window, park budget, per-peer stream cap — used
// identically by the TCP runtime and the simulator's credit-based bulk
// model, which is what keeps the simulated chunk schedule faithful to the
// real one.
//
// # Lanes
//
// Every envelope travels in one of two outbound lanes. LaneControl carries
// the metadata consensus path — votes, proofs, view-change, checkpoint,
// retrieval queries and other small messages whose latency bounds
// agreement progress. LaneBulk carries datablock dissemination and
// retrieval responses — the large payloads whose throughput the paper's
// design offloads from the critical path. Transports schedule LaneControl
// strictly ahead of LaneBulk so a multi-MiB datablock transfer can never
// head-of-line-block a 100-byte vote, or a query for the very data queued
// ahead of it; this is the transport-level mirror of Leopard's separation
// of metadata consensus from data dissemination. Each message type
// declares its lane once, in its Policy; nothing else picks one.
//
// # Determinism
//
// Simulated transports must be deterministic: the same seed and the same
// call sequence yield byte-identical runs. To keep that property, nodes
// must emit into the Sink deterministically (no map-iteration order, no
// wall-clock reads), and deterministic transports process the pushed
// envelopes strictly in emission order. The TCP runtime is free to
// interleave lanes nondeterministically — real networks do — but must still
// preserve per-lane FIFO per peer.
package transport

import (
	"time"

	"leopard/internal/types"
)

// Class labels a message for bandwidth accounting (Table III in the paper
// breaks leader/non-leader utilization down by these components).
type Class uint8

// Message classes.
const (
	ClassRequest Class = iota + 1 // client request submissions
	ClassDatablock
	ClassBFTblock
	ClassVote  // threshold-signature shares (any round, incl. ready)
	ClassProof // combined notarization/confirmation proofs
	ClassRetrieval
	ClassCheckpoint
	ClassViewChange
	ClassAck // acknowledgments to clients
	ClassMisc
	// ClassState is checkpoint-anchored state transfer: requests from and
	// responses to replicas recovering their executed log from peers.
	ClassState
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassDatablock:
		return "datablock"
	case ClassBFTblock:
		return "bftblock"
	case ClassVote:
		return "vote"
	case ClassProof:
		return "proof"
	case ClassRetrieval:
		return "retrieval"
	case ClassCheckpoint:
		return "checkpoint"
	case ClassViewChange:
		return "viewchange"
	case ClassAck:
		return "ack"
	case ClassMisc:
		return "misc"
	case ClassState:
		return "state"
	default:
		return "unknown"
	}
}

// NumClasses is the count of defined classes, for dense accounting arrays.
const NumClasses = int(ClassState) + 1

// Message is anything a protocol node can send. WireSize is the simulator's
// size model: simnet charges bandwidth and CPU by it. For the Leopard
// messages it is exact: a modelled 8-byte header plus the byte count of the
// message's codec walk, so it is the frame leopard.EncodeMessage produces
// plus 7 bytes (TestWireSizeIsEncodedLength). HotStuff's messages have no
// codec, and their sizes are hand arithmetic. Class is the accounting
// label; Policy, one constant per message type, is how the message travels.
type Message interface {
	WireSize() int
	Class() Class
	Policy() Policy
}

// Policy is a message type's traffic policy: its lane, and whether a
// network model's CPU stage (simnet's ProcBps) charges its bytes to the
// receiver. Only bytes a replica must deserialize and hash are charged;
// small control messages are handled out of band, as in real replicas.
type Policy uint8

const (
	// PolicyControl is the control lane, uncharged: votes, proofs,
	// proposals, checkpoints, timeouts, queries, credit grants.
	PolicyControl Policy = iota
	// PolicyControlCharged is the control lane, charged: view-change and
	// new-view messages, urgent but embedding notarized blocks.
	PolicyControlCharged
	// PolicyBulk is the bulk lane, charged: request payloads — datablocks,
	// retrieval responses, submissions, state-transfer responses.
	PolicyBulk
)

// Lane returns the lane the policy's messages ride.
func (p Policy) Lane() Lane {
	if p == PolicyBulk {
		return LaneBulk
	}
	return LaneControl
}

// Charged reports whether the receiver's CPU stage charges the bytes.
func (p Policy) Charged() bool { return p != PolicyControl }

// Codec converts protocol messages to and from wire frames. It is shared
// by the TCP transport (real frames) and the simulator's wire-fidelity mode
// (simnet.Config.Codec).
//
// Ownership contract: Decode may retain buf — the decoded message and its
// byte fields are allowed to sub-slice the frame (zero-copy decode), so the
// caller transfers ownership of buf at the call and must neither modify nor
// recycle it afterwards. Transports satisfy this by allocating one fresh
// frame per received message; a transport that pools frame buffers must use
// a copying codec instead. Encode's returned frame is owned by the caller;
// the codec keeps no reference to it.
type Codec interface {
	Encode(Message) ([]byte, error)
	Decode([]byte) (Message, error)
}

// Lane is an outbound scheduling class, fixed per message type by its
// Policy. Transports transmit LaneControl envelopes strictly ahead of
// LaneBulk envelopes queued to the same peer.
type Lane uint8

const (
	// LaneControl is the metadata consensus path: votes, proofs, proposals,
	// view-change, checkpoint, retrieval queries. Scheduled ahead of bulk.
	LaneControl Lane = iota
	// LaneBulk is datablock dissemination and retrieval responses:
	// streamed in chunks under credit-based per-peer flow control, parked
	// (not dropped) at zero credit, evicted only when the park budget
	// fills (the protocol recovers).
	LaneBulk
)

// String implements fmt.Stringer.
func (l Lane) String() string {
	switch l {
	case LaneControl:
		return "control"
	case LaneBulk:
		return "bulk"
	default:
		return "unknown"
	}
}

// Envelope is an outbound message. If Broadcast is set the message goes to
// every replica except the sender; otherwise it goes to To.
type Envelope struct {
	To        types.ReplicaID
	Broadcast bool
	Msg       Message
}

// Unicast builds a single-destination envelope.
func Unicast(to types.ReplicaID, msg Message) Envelope {
	return Envelope{To: to, Msg: msg}
}

// Broadcast builds an all-peers envelope.
func Broadcast(msg Message) Envelope {
	return Envelope{Broadcast: true, Msg: msg}
}

// Sink receives a node's outbound envelopes as the node emits them. See the
// package doc for the ordering, non-blocking and lifetime contract.
type Sink interface {
	// Send pushes one outbound envelope.
	Send(Envelope)
	// Broadcast is shorthand for Send(Broadcast(msg)).
	Broadcast(Message)
}

// SliceSink collects envelopes in emission order. It is the bridge for
// drivers (tests, synchronous routers) that want the old pull-style slice:
// pass a *SliceSink into a handler, then read Envelopes. The zero value is
// ready to use.
type SliceSink struct {
	Envelopes []Envelope
}

// Send implements Sink.
func (s *SliceSink) Send(env Envelope) { s.Envelopes = append(s.Envelopes, env) }

// Broadcast implements Sink.
func (s *SliceSink) Broadcast(msg Message) { s.Send(Envelope{Broadcast: true, Msg: msg}) }

// Reset clears the collected envelopes, retaining capacity.
func (s *SliceSink) Reset() { s.Envelopes = s.Envelopes[:0] }

// Discard is a Sink that drops everything (crash-like fault injection,
// benchmarks measuring the emit path alone).
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Send(Envelope)     {}
func (discardSink) Broadcast(Message) {}

// Node is an event-driven protocol participant. Handlers emit outbound
// envelopes by pushing into the Sink argument; they must not retain the
// Sink past the call and must be deterministic: the same call sequence
// yields the same emissions in the same order.
type Node interface {
	// ID returns the replica id this node runs as.
	ID() types.ReplicaID
	// Start is called once before any other event, with the initial time.
	Start(now time.Duration, out Sink)
	// Deliver handles a message from another replica.
	Deliver(now time.Duration, from types.ReplicaID, msg Message, out Sink)
	// Tick fires periodically so nodes can run timers (view-change,
	// retrieval timeouts, pacing). The interval is runtime-configured.
	Tick(now time.Duration, out Sink)
}
