// Package simnet is a deterministic discrete-event network simulator.
// Nodes push their outbound envelopes into the network's Sink as handlers
// run; envelopes are charged through the bandwidth model synchronously in
// emission order, so identical seeds yield identical runs. It is
// the substrate substituting for the paper's 600-instance EC2 testbed
// (README.md §"Push-based transport" and §"Bulk streaming & flow control"
// describe its lanes and flows): every byte a replica sends serializes
// through the sender's egress pipe and the receiver's ingress pipe at
// configured capacities, plus propagation latency, so bandwidth contention —
// the phenomenon the paper's scaling experiments measure — is modeled
// faithfully while hundreds of replicas run in one process in virtual time.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"leopard/internal/obs"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// Config describes the simulated network.
type Config struct {
	// EgressBps / IngressBps are the per-replica link capacities in bits
	// per second. The paper's testbed NICs are 9.8 Gbps; the scaling-up
	// experiment throttles 20–200 Mbps.
	EgressBps  float64
	IngressBps float64
	// Latency is the one-way propagation delay between any two replicas.
	Latency time.Duration
	// Jitter adds up to this much uniform random delay per message.
	Jitter time.Duration
	// ProcBps models the replica's request-processing rate (CPU): every
	// received byte passes through a serial processing stage at this
	// rate after the ingress pipe. The paper's systems peak around 1e5
	// requests/sec on 4-vCPU instances — far below NIC capacity — so the
	// scaling experiments are processing-bound at small n and bandwidth-
	// bound at large n. Zero disables the stage.
	ProcBps float64
	// HalfDuplex splits a single link capacity of EgressBps fairly between
	// the two directions: each runs at EgressBps/2 (IngressBps is
	// ignored). The Fig. 10 scaling-up experiment throttles replicas this
	// way, matching the paper's analysis that counts send+receive against
	// one capacity C (hence its γ -> 1/2 bound).
	HalfDuplex bool
	// TickInterval is how often node Tick handlers fire. Zero disables.
	TickInterval time.Duration
	// Seed feeds the deterministic RNG used for jitter.
	Seed int64
	// Stream tunes the bulk lane's chunking and credit-based flow control;
	// zero fields take the transport package defaults. It parameterizes
	// the same transport.StreamQueue the TCP runtime sends through, so a
	// simulated sender splits, parks and evicts exactly where the real one
	// would.
	Stream transport.StreamConfig
	// IngressBpsPer overrides IngressBps per replica when non-nil (zero
	// entries keep the global rate). Used to model a slow receiver, e.g.
	// the stream-scenario follower whose NIC lags the cluster. Ignored
	// under HalfDuplex.
	IngressBpsPer []float64
	// Codec, when set, enables wire fidelity: every message is encoded to
	// a fresh frame and decoded again per receiver before delivery, exactly
	// as the TCP transport would, instead of being delivered by reference.
	// This exercises the real (zero-copy) decode path and the canonical-
	// encoding checks under full protocol workloads; messages that fail to
	// round-trip are dropped, as a real transport would drop them. Nil
	// keeps reference delivery (faster, the default for large simulations).
	Codec transport.Codec
}

// DefaultConfig mirrors the paper's single-datacenter EC2 setup.
func DefaultConfig() Config {
	return Config{
		EgressBps:    9.8e9,
		IngressBps:   9.8e9,
		Latency:      500 * time.Microsecond,
		Jitter:       0,
		TickInterval: 5 * time.Millisecond,
		Seed:         1,
	}
}

// Filter can drop or hold messages between a pair of replicas, modeling
// Byzantine dissemination (selective attacks, harness.SelectiveAttack) and
// crash faults. Return false to drop the message silently.
type Filter func(now time.Duration, from, to types.ReplicaID, msg transport.Message) bool

type eventKind uint8

const (
	evDeliver eventKind = iota + 1
	evTick
	evCall
	evChunk  // one bulk chunk finished its ingress transfer
	evCredit // a credit grant reached the sender
)

type event struct {
	at   time.Duration
	seq  uint64 // tie-break for determinism
	kind eventKind
	from types.ReplicaID
	to   types.ReplicaID
	msg  transport.Message
	size int // msg's wire size, computed once per envelope: WireSize walks the message
	fn   func(now time.Duration)
	flow *flow
	n    int64 // chunk payload / granted bytes
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Network simulates message exchange among a fixed set of nodes.
// Not safe for concurrent use: Run drives everything on one goroutine.
type Network struct {
	cfg     Config
	nodes   []transport.Node
	egress  []time.Duration // per-replica egress pipe free-at time
	ingress []time.Duration
	proc    []time.Duration // per-replica processing stage free-at time
	stats   []Bandwidth
	filter  Filter
	crashed []bool

	// linkExtra holds per-link delay spikes installed by SetLinkDelay;
	// nil when no spike was ever installed. skew holds per-replica clock
	// offsets (SetClockSkew), applied to the virtual time a node's
	// handlers observe; nodeClock is the highest time each replica slot
	// has observed, clamping the skewed clock nondecreasing (it survives
	// Replace — the machine's clock, not the process's). observer is the
	// post-filter message tap (SetObserver) used by invariant checkers and
	// fault triggers.
	linkExtra map[linkKey]linkSpike
	skew      []time.Duration
	nodeClock []time.Duration
	observer  func(now time.Duration, from, to types.ReplicaID, msg transport.Message)

	// flows holds per-(sender, receiver) bulk flow state. flows[from] is
	// allocated lazily, flows[from][to] on first bulk send of the pair.
	flows [][]*flow

	// tracers[i], when set, receives flow-control lifecycle events (credit
	// park, park-budget eviction) observed at sender i, stamped with the
	// virtual clock — so seeded runs export byte-identical traces.
	tracers []*obs.Tracer

	queue eventHeap
	seq   uint64
	now   time.Duration
	rng   *rand.Rand

	// snk is the single reusable Sink handed to node handlers; only its
	// sender id changes per event. Envelopes pushed into it are dispatched
	// synchronously in emission order with a monotonically increasing
	// sequence tie-break, so identical seeds yield identical runs — the
	// deterministic-Sink property TestDeterministicStatsAcrossRuns asserts
	// at the protocol level.
	snk netSink
}

// netSink routes a node's pushed envelopes into the bandwidth model on
// behalf of the current sender. The Network is single-threaded: exactly one
// node handler runs at a time, so one shared sink suffices.
type netSink struct {
	net  *Network
	from types.ReplicaID
}

// Send implements transport.Sink.
func (s *netSink) Send(env transport.Envelope) { s.net.dispatch(s.from, env) }

// Broadcast implements transport.Sink.
func (s *netSink) Broadcast(msg transport.Message) {
	s.net.dispatch(s.from, transport.Envelope{Broadcast: true, Msg: msg})
}

// sinkFor points the shared sink at the given sender.
func (n *Network) sinkFor(id types.ReplicaID) *netSink {
	n.snk.from = id
	return &n.snk
}

// SetTracer attaches an event tracer to replica slot id. Flow-control
// events observed at that sender (credit parks, park-budget evictions) are
// emitted into it stamped with the virtual clock. A nil tracer detaches.
// The tracer is per-slot, like nodeClock: it survives Replace, so one
// history spans a replica's crash/restart lives.
func (n *Network) SetTracer(id types.ReplicaID, tr *obs.Tracer) {
	if n.tracers == nil {
		n.tracers = make([]*obs.Tracer, len(n.nodes))
	}
	n.tracers[id] = tr
}

// trace emits a flow-control event into sender id's tracer, if attached.
func (n *Network) trace(id types.ReplicaID, kind obs.EventKind, evID uint64, aux int64) {
	if n.tracers == nil {
		return
	}
	n.tracers[id].Emit(n.now, kind, 0, evID, aux)
}

// New builds a network over the given nodes; node i must have ID i.
func New(cfg Config, nodes []transport.Node) (*Network, error) {
	if cfg.EgressBps <= 0 || (cfg.IngressBps <= 0 && !cfg.HalfDuplex) {
		return nil, fmt.Errorf("simnet: capacities must be positive")
	}
	for i, n := range nodes {
		if int(n.ID()) != i {
			return nil, fmt.Errorf("simnet: node at slot %d reports id %d", i, n.ID())
		}
	}
	cfg.Stream.Normalize()
	n := &Network{
		cfg:       cfg,
		nodes:     nodes,
		egress:    make([]time.Duration, len(nodes)),
		ingress:   make([]time.Duration, len(nodes)),
		proc:      make([]time.Duration, len(nodes)),
		nodeClock: make([]time.Duration, len(nodes)),
		stats:     make([]Bandwidth, len(nodes)),
		crashed:   make([]bool, len(nodes)),
		flows:     make([][]*flow, len(nodes)),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	n.snk.net = n
	return n, nil
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// SetFilter installs a message filter (nil clears it).
func (n *Network) SetFilter(f Filter) { n.filter = f }

// SetObserver installs a tap invoked for every unicast message the filter
// admits, before bandwidth charging (nil clears it). The tap must not
// mutate the message: broadcasts fan out the same message value to every
// recipient. Invariant checkers and fault-schedule triggers hang off this
// hook so they compose with, rather than replace, the experiment's filter.
func (n *Network) SetObserver(fn func(now time.Duration, from, to types.ReplicaID, msg transport.Message)) {
	n.observer = fn
}

type linkKey struct{ from, to types.ReplicaID }

type linkSpike struct{ extra, jitter time.Duration }

// SetLinkDelay adds extra one-way propagation delay — plus up to jitter of
// seeded random spread per message — on the from→to link, on top of the
// network-wide Latency/Jitter. Zero extra and jitter clears the spike.
// Deterministic: the spike draws from the network's seeded RNG in event
// order like global jitter does.
func (n *Network) SetLinkDelay(from, to types.ReplicaID, extra, jitter time.Duration) {
	if n.linkExtra == nil {
		n.linkExtra = make(map[linkKey]linkSpike)
	}
	if extra <= 0 && jitter <= 0 {
		delete(n.linkExtra, linkKey{from, to})
		return
	}
	n.linkExtra[linkKey{from, to}] = linkSpike{extra: extra, jitter: jitter}
}

// SetClockSkew offsets the virtual time replica id observes: every
// subsequent Start/Tick/Deliver handler invocation on the node sees
// now+off (clamped at zero, and never behind any time the replica has
// already observed). Network-level bookkeeping — bandwidth charging, event
// ordering, ScheduleCall — stays on true virtual time; only the node's view
// of the clock shifts, modeling a drifting local clock against which the
// node runs its timers. Healing a positive skew therefore does not step the
// observed clock backwards: it holds still until true time catches up, as a
// disciplined clock slews rather than jumps.
func (n *Network) SetClockSkew(id types.ReplicaID, off time.Duration) {
	if n.skew == nil {
		n.skew = make([]time.Duration, len(n.nodes))
	}
	n.skew[id] = off
}

// nodeNow is the virtual time node id's handlers observe: true time plus
// the replica's skew, clamped nondecreasing per slot — leopard's timer
// arithmetic (now - lastPropose, now - vcStartedAt, served timestamps)
// assumes time never runs backwards.
func (n *Network) nodeNow(id types.ReplicaID) time.Duration {
	t := n.now
	if n.skew != nil {
		t += n.skew[id]
		if t < 0 {
			t = 0
		}
	}
	if t < n.nodeClock[id] {
		t = n.nodeClock[id]
	}
	n.nodeClock[id] = t
	return t
}

// Crash stops delivering events to a replica: control-lane messages and
// bulk chunks that reach it while it is down are lost, and bulk flows
// toward it stop booking chunks — what is queued stays parked at its
// senders, up to their park budget.
func (n *Network) Crash(id types.ReplicaID) { n.crashed[id] = true }

// Restart resumes delivery to a crashed replica (its state is as it was)
// and unparks every bulk flow toward it. Sim simplification: partial
// stream state survives the crash, where a real receiver would force its
// senders to rewind streams on reconnect.
func (n *Network) Restart(id types.ReplicaID) {
	n.crashed[id] = false
	for _, row := range n.flows {
		if row == nil || row[id] == nil {
			continue
		}
		n.flowPump(row[id])
	}
}

// Replace models a crash-restart with durable state: the slot's node is
// swapped for a freshly built one (e.g. recovered from its write-ahead
// log), delivery resumes, and the new node's Start runs at the current
// virtual time — emitting into the deterministic Sink like any other
// event, so identically-seeded runs with identical Replace schedules stay
// byte-identical. The restarted process has no outbound queue, so every
// bulk flow originating at the slot is dropped (queued streams from the
// old life die with it); flows toward the slot unpark as in Restart.
// Sim simplification shared with Restart: in-flight messages addressed to
// the old life may still deliver to the new one — a stray late frame the
// protocol tolerates by design.
func (n *Network) Replace(id types.ReplicaID, node transport.Node) error {
	if int(node.ID()) != int(id) {
		return fmt.Errorf("simnet: replacement for slot %d reports id %d", id, node.ID())
	}
	n.nodes[id] = node
	n.flows[id] = nil // fresh outbound: old parked streams are lost
	n.Restart(id)
	node.Start(n.nodeNow(id), n.sinkFor(id))
	return nil
}

// Bandwidth counts one replica's sent and received bytes per message class.
// The zero value is ready to use.
type Bandwidth struct {
	Sent     [transport.NumClasses]int64
	Received [transport.NumClasses]int64
}

// AddSent records an outbound message of the given class and size.
func (b *Bandwidth) AddSent(c transport.Class, bytes int) { b.Sent[c] += int64(bytes) }

// AddReceived records an inbound message.
func (b *Bandwidth) AddReceived(c transport.Class, bytes int) { b.Received[c] += int64(bytes) }

// TotalSent returns all bytes sent.
func (b *Bandwidth) TotalSent() int64 {
	var t int64
	for _, v := range b.Sent {
		t += v
	}
	return t
}

// TotalReceived returns all bytes received.
func (b *Bandwidth) TotalReceived() int64 {
	var t int64
	for _, v := range b.Received {
		t += v
	}
	return t
}

// Total returns all bytes in both directions.
func (b *Bandwidth) Total() int64 { return b.TotalSent() + b.TotalReceived() }

// Stats returns the bandwidth accounting for a replica. The pointer stays
// valid across Run calls; callers must not mutate it.
func (n *Network) Stats(id types.ReplicaID) *Bandwidth { return &n.stats[id] }

// ResetStats clears bandwidth accounting (e.g. after warmup).
func (n *Network) ResetStats() {
	for i := range n.stats {
		n.stats[i] = Bandwidth{}
	}
}

func (n *Network) push(e *event) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.queue, e)
}

// ScheduleCall runs fn at the given virtual time (e.g. fault injection).
func (n *Network) ScheduleCall(at time.Duration, fn func(now time.Duration)) {
	if at < n.now {
		at = n.now
	}
	n.push(&event{at: at, kind: evCall, fn: fn})
}

// transmissionDelay returns how long size bytes occupy a pipe of rate bps.
func transmissionDelay(size int, bps float64) time.Duration {
	return time.Duration(float64(size) * 8 / bps * float64(time.Second))
}

// occupy charges d of transmission time on pipe[idx], starting no earlier
// than earliest, and returns the completion time. Bulk-lane traffic queues
// FIFO; control-lane traffic (preempt) models priority queuing: real stacks
// interleave small control flows with bulk transfers instead of parking
// them behind megabytes of payload, so control frames transmit immediately
// while their bytes still count against the pipe's capacity (they are <1%
// of traffic, Table III). This is the simulated mirror of the TCP runtime's
// strict control-over-bulk lane scheduler.
func occupy(pipe []time.Duration, idx int, earliest, d time.Duration, preempt bool) time.Duration {
	if preempt {
		if pipe[idx] < earliest {
			pipe[idx] = earliest
		}
		pipe[idx] += d
		return earliest + d
	}
	start := pipe[idx]
	if start < earliest {
		start = earliest
	}
	done := start + d
	pipe[idx] = done
	return done
}

// rates returns the (egress, ingress) rates for a (sender, receiver)
// pair, applying half-duplex splitting and the per-replica ingress
// override.
func (n *Network) rates(to types.ReplicaID) (txRate, rxRate float64) {
	txRate, rxRate = n.cfg.EgressBps, n.cfg.IngressBps
	if n.cfg.HalfDuplex {
		txRate = n.cfg.EgressBps / 2
		return txRate, txRate
	}
	if int(to) < len(n.cfg.IngressBpsPer) && n.cfg.IngressBpsPer[to] > 0 {
		rxRate = n.cfg.IngressBpsPer[to]
	}
	return txRate, rxRate
}

// procDone charges the receiver's CPU stage for a message whose Policy is
// charged and returns the delivery time. Deserializing and hashing request
// bytes is what saturates the paper's 4-vCPU replicas, while votes, proofs
// and queries are small and handled out-of-band (separate
// connections/cores), so modeling them through the same FIFO would add a
// priority inversion real systems do not have: a retrieval query would
// wait behind the very datablock backlog it asks about. The charge is
// independent of the lane, so view-change messages ride control and are
// still charged.
func (n *Network) procDone(to types.ReplicaID, msg transport.Message, size int, rxDone time.Duration) time.Duration {
	if n.cfg.ProcBps <= 0 || !msg.Policy().Charged() {
		return rxDone
	}
	pStart := n.proc[to]
	if pStart < rxDone {
		pStart = rxDone
	}
	deliverAt := pStart + transmissionDelay(size, n.cfg.ProcBps)
	n.proc[to] = deliverAt
	return deliverAt
}

// arrival applies propagation latency and jitter — plus any installed
// per-link delay spike — to an egress completion.
func (n *Network) arrival(from, to types.ReplicaID, txDone time.Duration) time.Duration {
	arrive := txDone + n.cfg.Latency
	if n.cfg.Jitter > 0 {
		arrive += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	if n.linkExtra != nil {
		if sp, ok := n.linkExtra[linkKey{from, to}]; ok {
			arrive += sp.extra
			if sp.jitter > 0 {
				arrive += time.Duration(n.rng.Int63n(int64(sp.jitter)))
			}
		}
	}
	return arrive
}

// send routes one unicast message through the bandwidth model. The
// message's lane decides pipe scheduling: control-lane messages are booked
// at once and preempt queued bulk on both the egress and ingress pipes;
// bulk-lane messages enter the pair's credit-streamed flow, which books
// them chunk by chunk (and counts them as sent as it does). size is msg's
// WireSize, which dispatch computes once for all of the envelope's receivers.
func (n *Network) send(from, to types.ReplicaID, msg transport.Message, size int) {
	if int(to) >= len(n.nodes) || from == to {
		return
	}
	if n.cfg.Codec != nil {
		// Wire fidelity: round-trip through the codec per receiver. Each
		// Encode allocates a fresh frame, so the Decode below owns it —
		// the same ownership transfer the TCP read loop performs — and the
		// receiver gets an independent message rather than an alias of the
		// sender's.
		frame, err := n.cfg.Codec.Encode(msg)
		if err != nil {
			return // unencodable: drop, as the TCP dispatch path does
		}
		decoded, err := n.cfg.Codec.Decode(frame)
		if err != nil {
			return // protocol violation on the wire: drop
		}
		msg = decoded
	}
	if msg.Policy().Lane() == transport.LaneBulk {
		n.flowEnqueue(from, to, msg, size)
		return
	}
	n.stats[from].AddSent(msg.Class(), size)
	txRate, rxRate := n.rates(to)

	// Egress: serialize through the sender's pipe.
	txDone := occupy(n.egress, int(from), n.now, transmissionDelay(size, txRate), true)
	// Propagation, then ingress: serialize through the receiver's pipe.
	arrive := n.arrival(from, to, txDone)
	rxDone := occupy(n.ingress, int(to), arrive, transmissionDelay(size, rxRate), true)
	n.push(&event{at: n.procDone(to, msg, size, rxDone), kind: evDeliver, from: from, to: to, msg: msg, size: size})
}

// flow is one (sender, receiver) pair's bulk lane: a transport.StreamQueue
// — the queue the TCP runtime's per-peer scheduler sends through — plus
// what virtual time adds to it: the credit window, the receiver's
// not-yet-granted bytes, and the pipe bookings and grant events that move
// them. All state advances deterministically through heap events.
type flow struct {
	from, to types.ReplicaID
	q        transport.StreamQueue[transport.Message]
	credit   int64 // remaining send window
	consumed int64 // receiver bytes not yet granted back
}

// flowFor returns (lazily creating) the pair's flow.
func (n *Network) flowFor(from, to types.ReplicaID) *flow {
	if n.flows[from] == nil {
		n.flows[from] = make([]*flow, len(n.nodes))
	}
	f := n.flows[from][to]
	if f == nil {
		f = &flow{
			from:   from,
			to:     to,
			q:      transport.NewStreamQueue[transport.Message](n.cfg.Stream),
			credit: n.cfg.Stream.CreditWindow,
		}
		n.flows[from][to] = f
	}
	return f
}

// flowEnqueue admits one bulk message into the pair's flow. The queue's
// park budget is the only loss path: what it evicts (or refuses) is traced
// at the sender.
func (n *Network) flowEnqueue(from, to types.ReplicaID, msg transport.Message, size int) {
	f := n.flowFor(from, to)
	evicted, ok := f.q.Push(msg, size)
	for ; evicted > 0; evicted-- {
		n.trace(from, obs.EvCreditEvicted, uint64(to), f.q.Queued())
	}
	if !ok {
		return
	}
	n.flowPump(f)
	if f.credit <= 0 && f.q.Queued() > 0 {
		// The new frame (or its tail) parked awaiting a credit grant.
		n.trace(from, obs.EvCreditParked, uint64(to), f.q.Queued())
	}
}

// flowPump books chunks on the pipes until the flow's credit window is
// spent (each chunk debits it; the flow parks at zero credit). The window
// caps the bytes booked-but-not-granted-back, so a slow receiver
// backpressures the queue while the pipe stays full within the window, and
// the parked backlog is observable (StreamStats).
func (n *Network) flowPump(f *flow) {
	for n.flowBookOne(f) {
	}
}

// flowBookOne books one chunk — and counts its bytes as sent: a frame still
// parked, or evicted before it started, never touched the wire. False means
// the flow is drained, parked, or its receiver is down.
func (n *Network) flowBookOne(f *flow) bool {
	if n.crashed[f.to] {
		return false
	}
	c, ok := f.q.Next(f.credit)
	if !ok {
		return false // drained, or parked: a credit grant re-pumps
	}
	f.credit -= int64(c.Len)
	n.stats[f.from].AddSent(c.Item.Class(), c.Len)
	var final transport.Message
	if c.Fin {
		final = c.Item
	}

	txRate, rxRate := n.rates(f.to)
	txDone := occupy(n.egress, int(f.from), n.now, transmissionDelay(c.Len, txRate), false)
	arrive := n.arrival(f.from, f.to, txDone)
	rxDone := occupy(n.ingress, int(f.to), arrive, transmissionDelay(c.Len, rxRate), false)
	n.push(&event{at: rxDone, kind: evChunk, from: f.from, to: f.to, msg: final, size: c.Total, flow: f, n: int64(c.Len)})
	return true
}

// chunkArrived handles evChunk: the unit finished its ingress transfer.
// The receiver accounts consumed bytes toward a credit grant, the final
// chunk of a stream schedules the message's delivery (through the CPU
// stage), and the flow pumps its next unit.
func (n *Network) chunkArrived(e *event) {
	f := e.flow
	if n.crashed[f.to] {
		// The chunk hits a dead receiver: it is lost (no delivery, no
		// grant), but its credit refunds immediately — the sim's
		// stand-in for the TCP sender's fresh window after the
		// connection reset. Without the refund, a flow with a full
		// window in flight at the crash would stay parked forever and
		// Restart could never unpark it.
		f.credit += e.n
		if f.credit > n.cfg.Stream.CreditWindow {
			f.credit = n.cfg.Stream.CreditWindow
		}
		return
	}
	f.consumed += e.n
	if f.consumed >= n.cfg.Stream.GrantThreshold() {
		n.sendGrant(f, f.consumed)
		f.consumed = 0
	}
	if e.msg != nil {
		n.push(&event{at: n.procDone(f.to, e.msg, e.size, n.now), kind: evDeliver, from: f.from, to: f.to, msg: e.msg, size: e.size})
	}
	n.flowPump(f)
}

// sendGrant models the receiver's CreditMsg: a small control-lane frame
// from f.to back to f.from, preempting queued bulk like any control
// traffic, charged to both pipes and accounted under ClassMisc.
func (n *Network) sendGrant(f *flow, bytes int64) {
	grant := &transport.CreditMsg{Consumed: bytes}
	size := grant.WireSize()
	n.stats[f.to].AddSent(grant.Class(), size)
	txRate, rxRate := n.rates(f.from)
	txDone := occupy(n.egress, int(f.to), n.now, transmissionDelay(size, txRate), true)
	arrive := n.arrival(f.to, f.from, txDone)
	rxDone := occupy(n.ingress, int(f.from), arrive, transmissionDelay(size, rxRate), true)
	n.stats[f.from].AddReceived(grant.Class(), size)
	n.push(&event{at: rxDone, kind: evCredit, flow: f, n: bytes})
}

// creditArrived handles evCredit: the grant reopens the window (capped,
// as in the TCP scheduler) and unparks the flow.
func (n *Network) creditArrived(e *event) {
	f := e.flow
	f.credit += e.n
	if f.credit > n.cfg.Stream.CreditWindow {
		f.credit = n.cfg.Stream.CreditWindow
	}
	n.flowPump(f)
}

// StreamStats aggregates the bulk flow-control counters across every flow
// originating at sender id: parked bytes, in-flight window, queued
// streams and park-budget evictions.
func (n *Network) StreamStats(id types.ReplicaID) transport.StreamStats {
	var out transport.StreamStats
	for _, f := range n.flows[id] {
		if f == nil {
			continue
		}
		st := f.q.Stats()
		st.CreditsOutstanding = n.cfg.Stream.CreditWindow - f.credit
		out.Accumulate(st)
	}
	return out
}

// TotalBulkDrops sums the bulk frames lost to park-budget evictions over
// all senders.
func (n *Network) TotalBulkDrops() int64 {
	var total int64
	for i := range n.nodes {
		total += n.StreamStats(types.ReplicaID(i)).Evictions
	}
	return total
}

// PeakQueuedBytes returns the largest bulk backlog any single sender
// parked at once (the max over senders of their per-sender peak).
func (n *Network) PeakQueuedBytes() int64 {
	var peak int64
	for i := range n.nodes {
		if p := n.StreamStats(types.ReplicaID(i)).PeakQueuedBytes; p > peak {
			peak = p
		}
	}
	return peak
}

// dispatch fans an envelope out into unicast sends, applying the filter.
func (n *Network) dispatch(from types.ReplicaID, env transport.Envelope) {
	if env.Msg == nil {
		return
	}
	size := env.Msg.WireSize()
	deliverTo := func(to types.ReplicaID) {
		if n.filter != nil && !n.filter(n.now, from, to, env.Msg) {
			return
		}
		if n.observer != nil {
			n.observer(n.now, from, to, env.Msg)
		}
		n.send(from, to, env.Msg, size)
	}
	if env.Broadcast {
		for id := range n.nodes {
			if types.ReplicaID(id) != from {
				deliverTo(types.ReplicaID(id))
			}
		}
		return
	}
	deliverTo(env.To)
}

// Start initializes all nodes and schedules ticking. Call once before Run.
func (n *Network) Start() {
	for _, node := range n.nodes {
		node.Start(n.nodeNow(node.ID()), n.sinkFor(node.ID()))
	}
	if n.cfg.TickInterval > 0 {
		n.scheduleTick(n.cfg.TickInterval)
	}
}

func (n *Network) scheduleTick(at time.Duration) {
	n.push(&event{at: at, kind: evTick})
}

// Run advances virtual time until the given deadline, processing all events.
func (n *Network) Run(until time.Duration) {
	for n.queue.Len() > 0 {
		e := n.queue[0]
		if e.at > until {
			break
		}
		heap.Pop(&n.queue)
		n.now = e.at
		switch e.kind {
		case evDeliver:
			if n.crashed[e.to] {
				continue
			}
			n.stats[e.to].AddReceived(e.msg.Class(), e.size)
			n.nodes[e.to].Deliver(n.nodeNow(e.to), e.from, e.msg, n.sinkFor(e.to))
		case evTick:
			for _, node := range n.nodes {
				if n.crashed[node.ID()] {
					continue
				}
				node.Tick(n.nodeNow(node.ID()), n.sinkFor(node.ID()))
			}
			// Always reschedule; if the next tick lies beyond the
			// deadline it stays queued for a later Run call.
			n.scheduleTick(n.now + n.cfg.TickInterval)
		case evCall:
			e.fn(n.now)
		case evChunk:
			n.chunkArrived(e)
		case evCredit:
			n.creditArrived(e)
		}
	}
	if n.now < until {
		n.now = until
	}
}

// PipeLag reports how far each of a replica's pipes is booked beyond the
// current virtual time: (egress, ingress, processing). Diagnostic helper
// for experiments and tests.
func (n *Network) PipeLag(id types.ReplicaID) (tx, rx, proc time.Duration) {
	lag := func(at time.Duration) time.Duration {
		if at <= n.now {
			return 0
		}
		return at - n.now
	}
	return lag(n.egress[id]), lag(n.ingress[id]), lag(n.proc[id])
}
