package main

// cluster.go is the only file of the benchmark that imports the program's
// packages. Everything else in this directory works on the small local
// types declared here (request, reply, replicaSnap, clientSession), so a
// refactor of the program's API needs a follow-up in this one file.
// README.md lists the surface used.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"leopard/internal/client"
	"leopard/internal/codec"
	"leopard/internal/crypto"
	"leopard/internal/erasure"
	"leopard/internal/leopard"
	"leopard/internal/mempool"
	"leopard/internal/merkle"
	"leopard/internal/obs"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/transport/tcp"
	"leopard/internal/types"
)

// request is one client request as the load generator sees it.
type request struct {
	client, seq uint64
	payload     []byte
}

func (r request) wire() types.Request {
	return types.Request{ClientID: r.client, Seq: r.seq, Payload: r.payload}
}

// reply is one replica's signed reply as handed to the load generator.
// replica is the replica whose reply sink produced it; signer and sig are
// the share it carries, checked after the window by verifyReply.
type reply struct {
	client, seq uint64
	sn          uint64
	result      [32]byte
	replica     int
	signer      int
	sig         []byte
}

// classNames maps a message class index to the program's name for it.
var classNames [maxClasses]string

func init() {
	if transport.NumClasses > maxClasses {
		panic("leopard-bench: transport.NumClasses exceeds maxClasses")
	}
	for c := 0; c < maxClasses; c++ {
		classNames[c] = transport.Class(c).String()
		kindNames[int(kDeliver)+c] = "deliver." + classNames[c]
	}
}

// clientSession wraps the program's closed-loop client state machine.
type clientSession struct{ s *client.Session }

func newClientSession(id uint64, f int) clientSession {
	return clientSession{client.NewSession(client.SessionConfig{
		ClientID: id, F: f, RetransmitAfter: retransmitAfter,
	})}
}

func (c clientSession) inFlight() bool     { return c.s.InFlight() }
func (c clientSession) seq() uint64        { return c.s.Seq() }
func (c clientSession) attempt() int       { return c.s.Attempt() }
func (c clientSession) retransmits() int64 { return c.s.Retransmits() }

func (c clientSession) begin(now time.Duration, payload []byte) request {
	r := c.s.Begin(now, payload)
	return request{client: r.ClientID, seq: r.Seq, payload: r.Payload}
}

func (c clientSession) due(now time.Duration) bool { return c.s.Due(now) }

func (c clientSession) retransmit(now time.Duration) request {
	r := c.s.Retransmit(now)
	return request{client: r.ClientID, seq: r.Seq, payload: r.Payload}
}

// onReply folds one reply into the session's certificate and reports
// whether it completed the f+1 matching set.
func (c clientSession) onReply(now time.Duration, r reply) bool {
	ok, _ := c.s.OnReply(now, client.Reply{
		Client: r.client, Seq: r.seq, SN: types.SeqNum(r.sn), Result: r.result,
		Replica: types.ReplicaID(r.replica),
	})
	return ok
}

// retransmitTargets is the rotating f+1 window attempt k of a request goes to.
func retransmitTargets(n, f, attempt, origin int) []int {
	set := client.RetransmitSet(n, f, attempt, types.ReplicaID(origin))
	out := make([]int, len(set))
	for i, id := range set {
		out[i] = int(id)
	}
	return out
}

// clusterSpec is what newCluster needs to stand up the replicas.
type clusterSpec struct {
	n             int
	rotate        bool
	datablockSize int
	bftBlockSize  int
	clients       int
	walDir        string     // "" runs in memory
	seed          []byte     // cluster seed: replica and client keys derive from it
	rec           *recording // nil runs untraced
}

// replicaSnap is a copy of one replica's state taken on its apply loop.
type replicaSnap struct {
	ExecutedTo   uint64
	State        [32]byte
	Leader       int
	InViewChange bool

	ConfirmedRequests  int64
	ExecutedBlocks     int64
	DatablocksMade     int64
	Retrievals         int64
	ViewChanges        int64
	Pending, Queued    int
	Admitted, Rejected int64
	BlocksReplayed     int64
	StateBlocksApplied int64
	WALErrors          int64
	StoreSyncs         int64
	GenerationNs       int64 // summed request wait before packing
	ExecRequests       int64 // requests seen by the executor

	// Counted by the decorators of a traced run (zero otherwise).
	RxBytes, RxMsgs [maxClasses]int64
	EncodeBytes     int64
	AppendBytes     int64
	StoreErrors     int64
}

// counters are the decorators' per-replica counts. They are written on the
// replica's apply loop and read there by snapshot.
type counters struct {
	rxBytes, rxMsgs [maxClasses]int64
	encodeBytes     int64
	appendBytes     int64
	storeErrors     int64
	execRequests    int64
}

type replica struct {
	node    *leopard.Node
	rt      *tcp.Runtime
	wal     *storage.Log
	cnt     *counters
	stopped chan struct{} // closed once a stop has fully ended
	// down is set by stop: the load generator's goroutine is the only one
	// that stops, restarts and submits, so it needs no lock.
	down        bool
	everStopped bool
}

func (r *replica) closeWAL() error {
	if r.wal == nil {
		return nil
	}
	wal := r.wal
	r.wal = nil
	return wal.Close()
}

// cluster is n in-process replicas wired the way cmd/leopard-node wires one:
// leopard.NewNode + tcp.New over loopback, crypto.NewEd25519Suite,
// client.Keychain.Verifier(), optionally storage.Open on disk.
type cluster struct {
	spec    clusterSpec
	q       types.QuorumParams
	addrs   []string
	keys    *client.Keychain
	suite   crypto.Suite // the load generator's own, for verifyReply
	reps    []*replica
	onReply func(reply)
	traces  *obs.TraceSet
	extra   []*obs.Tracer // tracers of restarted replicas (own clock)
	ringCap int
	stops   sync.WaitGroup
}

func newCluster(spec clusterSpec, onReply func(reply)) (*cluster, error) {
	q, err := types.NewQuorumParams(spec.n)
	if err != nil {
		return nil, err
	}
	keys, err := client.NewKeychain(spec.clients, spec.seed)
	if err != nil {
		return nil, err
	}
	suite, err := crypto.NewEd25519Suite(spec.n, spec.seed)
	if err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(spec.n)
	if err != nil {
		return nil, err
	}
	c := &cluster{spec: spec, q: q, addrs: addrs, keys: keys, suite: suite, onReply: onReply,
		reps: make([]*replica, spec.n)}
	if spec.rec != nil {
		// Sized so that a run several times faster than today's still fits
		// in the ring: every replica emits at least one event per request.
		c.ringCap = 1 << 19
		if spec.n > 4 {
			c.ringCap = 1 << 18
		}
		if spec.n > 8 {
			c.ringCap = 1 << 17
		}
		c.traces = obs.NewTraceSet("leopard-bench", spec.n, c.ringCap)
	}
	for i := 0; i < spec.n; i++ {
		if err := c.startReplica(i, false); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// freeAddrs reserves n loopback ports by listening on them and closing the
// listeners again; the runtimes listen on them a moment later.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startReplica builds replica i and starts its runtime. A restarted
// replica gets a new node and runtime on the same address and WAL directory.
func (c *cluster) startReplica(i int, restarted bool) error {
	spec := c.spec
	suite, err := crypto.NewEd25519Suite(spec.n, spec.seed)
	if err != nil {
		return err
	}
	rep := &replica{cnt: &counters{}, stopped: make(chan struct{}), everStopped: restarted}
	var (
		nodeSuite crypto.Suite           = suite
		verifier  leopard.ClientVerifier = c.keys.Verifier()
		wire      transport.Codec        = leopard.WireCodec{}
		store     storage.Store
		tracer    *obs.Tracer
		loop      *loopRecorder
	)
	if spec.walDir != "" {
		wal, err := storage.Open(filepath.Join(spec.walDir, fmt.Sprintf("r%d", i)), storage.Options{})
		if err != nil {
			return fmt.Errorf("open WAL of replica %d: %w", i, err)
		}
		rep.wal = wal
		store = wal
	}
	if spec.rec != nil {
		loop = spec.rec.loops[i]
		nodeSuite = tracedSuite{suite, loop}
		verifier = tracedVerifier{verifier, loop}
		wire = tracedCodec{wire, loop, spec.rec.sides[i], rep.cnt}
		if store != nil {
			store = tracedStore{store, loop, rep.cnt}
		}
		if restarted {
			// A restarted runtime's clock starts again from zero, so its
			// events cannot share a stage reduction with the others.
			tracer = obs.NewTracer(c.ringCap)
			c.extra = append(c.extra, tracer)
		} else {
			tracer = c.traces.Tracer(i)
		}
	}
	node, err := leopard.NewNode(leopard.Config{
		ID:            types.ReplicaID(i),
		Quorum:        c.q,
		Suite:         nodeSuite,
		DatablockSize: spec.datablockSize,
		BFTBlockSize:  spec.bftBlockSize,
		Store:         store,
		Verifier:      verifier,
		Tracer:        tracer,
		RotateLeaders: spec.rotate,
	})
	if err != nil {
		rep.closeWAL()
		return err
	}
	rep.node = node
	cnt := rep.cnt
	node.SetExecutor(func(sn types.SeqNum, reqs []types.Request) {
		if loop != nil {
			loop.begin(kExecute)
			defer loop.end()
		}
		cnt.execRequests += int64(len(reqs))
	})
	node.SetReplySink(func(m leopard.ReplyMsg) {
		if loop != nil {
			loop.begin(kReply)
			defer loop.end()
		}
		c.onReply(reply{client: m.Client, seq: m.Seq, sn: uint64(m.SN), result: m.Result,
			replica: i, signer: int(m.Share.Signer), sig: m.Share.Sig})
	})
	var tn transport.Node = node
	if loop != nil {
		tn = &tracedNode{node, loop, rep.cnt}
	}
	rt, err := tcp.New(tcp.Config{
		Self:   types.ReplicaID(i),
		Addrs:  c.addrs,
		Codec:  wire,
		Tracer: tracer,
		// All replicas start within microseconds of each other, so a first
		// dial can find its peer not listening yet; the default 500 ms
		// retry would then decide setup_s.
		DialRetry:    20 * time.Millisecond,
		DialRetryMax: time.Second,
	}, tn)
	if err != nil {
		rep.closeWAL()
		return err
	}
	rep.rt = rt
	c.reps[i] = rep
	c.stops.Add(1)
	go func() {
		defer c.stops.Done()
		defer close(rep.stopped)
		// Run returns once Stop (ours, or its own on a failed listen) has
		// waited for the runtime's goroutines.
		if err := rt.Run(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "leopard-bench: replica %d: %v\n", i, err)
		}
	}()
	return nil
}

func (c *cluster) f() int          { return c.q.F }
func (c *cluster) n() int          { return c.q.N }
func (c *cluster) up(i int) bool   { return !c.reps[i].down }
func (c *cluster) full(i int) bool { return !c.reps[i].everStopped && !c.reps[i].down }

// sign signs a request under its client's key.
func (c *cluster) sign(r request) ([]byte, error) { return c.keys.Sign(r.wire()) }

// verifyReply checks a reply's signature share the way cmd/leopard-client
// does before counting it, and that the share names the replica it came from.
func (c *cluster) verifyReply(r reply) bool {
	if r.signer != r.replica {
		return false
	}
	digest := client.ReplyDigest(r.client, r.seq, types.SeqNum(r.sn), r.result)
	return c.suite.VerifyShare(digest, crypto.Share{Signer: types.ReplicaID(r.signer), Sig: r.sig}) == nil
}

// submit hands a signed request to replica i on its apply loop. It blocks
// while the runtime's inject queue is full and fails once it has stopped.
func (c *cluster) submit(i int, r request, sig []byte) error {
	rep := c.reps[i]
	if rep.down {
		return errors.New("replica is down")
	}
	req := r.wire()
	if c.spec.rec == nil {
		return rep.rt.Inject(func(now time.Duration, out transport.Sink) {
			rep.node.SubmitSigned(now, req, sig)
		})
	}
	loop, injected := c.spec.rec.loops[i], time.Now()
	return rep.rt.Inject(func(now time.Duration, out transport.Sink) {
		loop.noteWait(injected)
		loop.begin(kInjectSubmit)
		rep.node.SubmitSigned(now, req, sig)
		loop.end()
	})
}

// snapshotAsync copies replica i's state on its apply loop — the node is a
// single-goroutine state machine, so nothing may read it from outside — and
// hands the copy to deliver, still on the apply loop. It does not wait for
// the closure to run; it reports false if the replica is down.
func (c *cluster) snapshotAsync(i int, deliver func(replicaSnap)) bool {
	rep := c.reps[i]
	if rep.down {
		return false
	}
	return rep.rt.Inject(func(now time.Duration, out transport.Sink) {
		if c.spec.rec != nil {
			loop := c.spec.rec.loops[i]
			loop.begin(kInjectOther)
			defer loop.end()
		}
		st := rep.node.Stats()
		s := replicaSnap{
			ExecutedTo:         uint64(rep.node.ExecutedTo()),
			State:              rep.node.ExecutionState(),
			Leader:             int(rep.node.Leader()),
			InViewChange:       rep.node.InViewChange(),
			ConfirmedRequests:  st.ConfirmedRequests,
			ExecutedBlocks:     st.ExecutedBlocks,
			DatablocksMade:     st.DatablocksMade,
			Retrievals:         st.Retrievals,
			ViewChanges:        st.ViewChanges,
			Pending:            st.PendingRequests,
			Queued:             st.QueuedRequests,
			Admitted:           st.AdmittedRequests,
			Rejected:           st.RejectedRequests,
			BlocksReplayed:     st.BlocksReplayed,
			StateBlocksApplied: st.StateBlocksApplied,
			WALErrors:          st.WALErrors,
			ExecRequests:       rep.cnt.execRequests,
			RxBytes:            rep.cnt.rxBytes,
			RxMsgs:             rep.cnt.rxMsgs,
			EncodeBytes:        rep.cnt.encodeBytes,
			AppendBytes:        rep.cnt.appendBytes,
			StoreErrors:        rep.cnt.storeErrors,
		}
		for _, row := range st.Stages.Rows() {
			if row.Stage == leopard.StageGeneration {
				s.GenerationNs = int64(row.Total)
			}
		}
		if rep.wal != nil {
			s.StoreSyncs = rep.wal.Stats().Syncs
		}
		deliver(s)
	}) == nil
}

// snapshot is snapshotAsync followed by a wait for the copy.
func (c *cluster) snapshot(i int) (replicaSnap, bool) {
	var s replicaSnap
	done := make(chan struct{})
	if !c.snapshotAsync(i, func(got replicaSnap) { s = got; close(done) }) {
		return replicaSnap{}, false
	}
	select {
	case <-done:
		return s, true
	case <-c.reps[i].rt.Done():
		// The closure may have finished in the instant the runtime stopped.
		select {
		case <-done:
			return s, true
		default:
			return replicaSnap{}, false
		}
	}
}

// stop crashes replica i's runtime. Runtime.Stop waits for read loops that
// only notice the stop when a peer next writes, so it runs off the
// caller's goroutine; the crash itself takes effect at once (the stop
// channel and the listener are closed before the wait).
func (c *cluster) stop(i int) {
	rep := c.reps[i]
	if rep.down {
		return
	}
	rep.down, rep.everStopped = true, true
	c.stopAsync(rep)
}

func (c *cluster) stopAsync(rep *replica) {
	c.stops.Add(1)
	go func() {
		defer c.stops.Done()
		rep.rt.Stop()
	}()
}

// restart brings a stopped replica back: new node and runtime, same
// address, same WAL directory.
func (c *cluster) restart(i int) error {
	rep := c.reps[i]
	if !rep.down {
		return errors.New("restart of a running replica")
	}
	select {
	case <-rep.stopped:
	case <-time.After(3 * time.Second):
		return fmt.Errorf("replica %d: Runtime.Stop still waiting after 3s", i)
	}
	if err := rep.closeWAL(); err != nil {
		return fmt.Errorf("close WAL of replica %d: %w", i, err)
	}
	return c.startReplica(i, true)
}

// transportTotals sums the transports' own counters over live replicas.
func (c *cluster) transportTotals() (evictions, drops int64) {
	for _, rep := range c.reps {
		if rep == nil || rep.down {
			continue
		}
		evictions += rep.rt.StreamTotals().Evictions
		for p := 0; p < c.q.N; p++ {
			drops += rep.rt.Drops(types.ReplicaID(p))
		}
	}
	return evictions, drops
}

// close stops every replica, waits for the runtimes and closes the WALs.
func (c *cluster) close() error {
	for _, rep := range c.reps {
		if rep != nil && !rep.down {
			rep.down = true
			c.stopAsync(rep)
		}
	}
	c.stops.Wait()
	var first error
	for _, rep := range c.reps {
		if rep == nil {
			continue
		}
		if err := rep.closeWAL(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stageEnds maps a stage of obs.StageBreakdown to the event kind that ends
// it and to the short name the metric uses.
var stageEnds = []struct {
	stage string
	end   obs.EventKind
	name  string
}{
	{obs.StageDissemination, obs.EvDatablockReady, "dissemination"},
	{obs.StageNotarization, obs.EvSigma1Cert, "notarization"},
	{obs.StageConfirmation, obs.EvSigma2Cert, "confirmation"},
	{obs.StageExecution, obs.EvBlockExecuted, "execution"},
}

// traceSummary reduces the replicas' lifecycle events: the mean wait per
// object (ms) of each obs.StageBreakdown stage, the number of events
// emitted, the credit-park events, and whether a ring overflowed. Replica
// clocks start when their runtime does, a few hundred microseconds apart,
// which bounds the error of a cross-replica wait.
func (c *cluster) traceSummary() (stageMs map[string]float64, events, parks int64, overflow bool) {
	stageMs = map[string]float64{}
	if c.traces == nil {
		return stageMs, 0, 0, false
	}
	objects := map[obs.EventKind]map[uint64]struct{}{}
	for _, se := range stageEnds {
		objects[se.end] = map[uint64]struct{}{}
	}
	tracers := append([]*obs.Tracer(nil), c.extra...)
	for i := 0; i < c.traces.Size(); i++ {
		tracers = append(tracers, c.traces.Tracer(i))
	}
	for ti, t := range tracers {
		events += int64(t.Total())
		if t.Total() > uint64(c.ringCap) {
			overflow = true
		}
		for _, e := range t.Events() {
			if e.Kind == obs.EvCreditParked {
				parks++
			}
			if set, ok := objects[e.Kind]; ok && ti >= len(c.extra) {
				set[e.ID] = struct{}{}
			}
		}
	}
	for _, row := range obs.StageBreakdown([]*obs.TraceSet{c.traces}) {
		for _, se := range stageEnds {
			if row.Stage == se.stage && len(objects[se.end]) > 0 {
				stageMs[se.name] = float64(row.Total) / float64(time.Millisecond) / float64(len(objects[se.end]))
			}
		}
	}
	return stageMs, events, parks, overflow
}

// writeEvents writes the replicas' lifecycle events as Chrome trace JSON.
func (c *cluster) writeEvents(w io.Writer) error { return c.traces.WriteChrome(w) }

// ---- decorators of the traced run ----

// tracedNode opens the parent span of every apply-loop event and counts
// what the replica receives, by message class.
type tracedNode struct {
	inner *leopard.Node
	loop  *loopRecorder
	cnt   *counters
}

func (t *tracedNode) ID() types.ReplicaID { return t.inner.ID() }

func (t *tracedNode) Start(now time.Duration, out transport.Sink) {
	t.loop.begin(kStart)
	t.inner.Start(now, out)
	t.loop.end()
}

func (t *tracedNode) Tick(now time.Duration, out transport.Sink) {
	t.loop.begin(kTick)
	t.inner.Tick(now, out)
	t.loop.end()
}

func (t *tracedNode) Deliver(now time.Duration, from types.ReplicaID, msg transport.Message, out transport.Sink) {
	class := int(msg.Class())
	t.cnt.rxBytes[class] += int64(msg.WireSize())
	t.cnt.rxMsgs[class]++
	t.loop.begin(kDeliver + spanKind(class))
	t.inner.Deliver(now, from, msg, out)
	t.loop.end()
}

type tracedSuite struct {
	crypto.Suite
	loop *loopRecorder
}

func (s tracedSuite) Sign(signer types.ReplicaID, digest types.Hash) (crypto.Share, error) {
	s.loop.begin(kSign)
	defer s.loop.end()
	return s.Suite.Sign(signer, digest)
}

func (s tracedSuite) VerifyShare(digest types.Hash, share crypto.Share) error {
	s.loop.begin(kVerifyShare)
	defer s.loop.end()
	return s.Suite.VerifyShare(digest, share)
}

func (s tracedSuite) Combine(digest types.Hash, shares []crypto.Share) (crypto.Proof, error) {
	s.loop.begin(kCombine)
	defer s.loop.end()
	return s.Suite.Combine(digest, shares)
}

func (s tracedSuite) VerifyProof(digest types.Hash, proof crypto.Proof) error {
	s.loop.begin(kVerifyProof)
	defer s.loop.end()
	return s.Suite.VerifyProof(digest, proof)
}

type tracedVerifier struct {
	leopard.ClientVerifier
	loop *loopRecorder
}

func (v tracedVerifier) VerifyRequest(req types.Request, sig []byte) bool {
	v.loop.begin(kClientVerify)
	defer v.loop.end()
	return v.ClientVerifier.VerifyRequest(req, sig)
}

func (v tracedVerifier) VerifyRequestBatch(reqs []types.Request, sigs [][]byte) []bool {
	v.loop.begin(kClientVerify)
	defer v.loop.end()
	return v.ClientVerifier.VerifyRequestBatch(reqs, sigs)
}

// tracedCodec times Encode on the apply loop (the runtime encodes inside
// the node's emit) and Decode on the transport's read loops.
type tracedCodec struct {
	transport.Codec
	loop *loopRecorder
	side *sideRecorder
	cnt  *counters
}

func (c tracedCodec) Encode(m transport.Message) ([]byte, error) {
	c.loop.begin(kEncode)
	buf, err := c.Codec.Encode(m)
	c.loop.end()
	c.cnt.encodeBytes += int64(len(buf))
	return buf, err
}

func (c tracedCodec) Decode(buf []byte) (transport.Message, error) {
	start := time.Now()
	m, err := c.Codec.Decode(buf)
	c.side.record(kDecode, start, time.Since(start))
	return m, err
}

type tracedStore struct {
	storage.Store
	loop *loopRecorder
	cnt  *counters
}

func (s tracedStore) timed(k spanKind, fn func() error) error {
	s.loop.begin(k)
	err := fn()
	s.loop.end()
	if err != nil {
		s.cnt.storeErrors++
	}
	return err
}

func (s tracedStore) Append(rec *storage.BlockRecord) error {
	s.cnt.appendBytes += int64(rec.WireSize())
	return s.timed(kAppend, func() error { return s.Store.Append(rec) })
}

func (s tracedStore) AppendVote(v storage.VoteRecord) error {
	return s.timed(kAppendVote, func() error { return s.Store.AppendVote(v) })
}

func (s tracedStore) AppendNote(nt storage.NoteRecord) error {
	return s.timed(kAppendNote, func() error { return s.Store.AppendNote(nt) })
}

func (s tracedStore) SaveCheckpoint(cp storage.Checkpoint) error {
	return s.timed(kStoreOther, func() error { return s.Store.SaveCheckpoint(cp) })
}

func (s tracedStore) SaveMeta(m storage.Meta) error {
	return s.timed(kStoreOther, func() error { return s.Store.SaveMeta(m) })
}

func (s tracedStore) TruncateBelow(seq types.SeqNum) error {
	return s.timed(kStoreOther, func() error { return s.Store.TruncateBelow(seq) })
}

func (s tracedStore) Reset(seq types.SeqNum) error {
	return s.timed(kStoreOther, func() error { return s.Store.Reset(seq) })
}

func (s tracedStore) Sync() error {
	return s.timed(kStoreOther, func() error { return s.Store.Sync() })
}

// ---- isolated drivers for layers with no seam in the cluster ----

// timeMedian runs fn until at least budget has passed (and at least three
// times) and returns the median duration of one call.
func timeMedian(budget time.Duration, fn func()) time.Duration {
	var runs []float64
	for start := time.Now(); len(runs) < 3 || time.Since(start) < budget; {
		t := time.Now()
		fn()
		runs = append(runs, float64(time.Since(t)))
	}
	return time.Duration(percentile(runs, 50))
}

// isolatedLayers times the public functions of mempool, erasure and merkle
// on the workload's own shapes: reqs is one datablock's worth of requests,
// n the cluster size.
func isolatedLayers(n int, reqs []request) (map[string]float64, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, err
	}
	wire := make([]types.Request, len(reqs))
	for i, r := range reqs {
		wire[i] = r.wire()
	}
	out := map[string]float64{}

	// Admission and extraction alternate on one pool: each round admits a
	// datablock's worth of fresh sequence numbers, then extracts them.
	pool := mempool.NewRequestPoolLimits(mempool.Limits{})
	var admit, extract []float64
	round := uint64(0)
	for start := time.Now(); round < 3 || time.Since(start) < 20*time.Millisecond; round++ {
		for i := range wire {
			wire[i].Seq = reqs[i].seq + round
		}
		t := time.Now()
		for _, r := range wire {
			pool.Admit(r, time.Duration(round))
		}
		admit = append(admit, float64(time.Since(t))/float64(len(wire)))
		t = time.Now()
		got, _ := pool.Extract(len(wire))
		extract = append(extract, float64(time.Since(t))/float64(len(wire)))
		if len(got) != len(wire) {
			return nil, fmt.Errorf("mempool driver: extracted %d of %d", len(got), len(wire))
		}
		for _, r := range got {
			pool.MarkConfirmed(r.ID())
		}
	}
	out["mempool.admit_ns"] = percentile(admit, 50)
	out["mempool.extract_ns_per_req"] = percentile(extract, 50)

	// Retrieval's shapes: the marshalled datablock, an (f+1, n) code, a
	// Merkle tree over the n chunks.
	for i := range wire {
		wire[i].Seq = reqs[i].seq
	}
	data := codec.MarshalDatablock(&types.Datablock{
		Ref: types.DatablockRef{Generator: 0, Counter: 1}, Requests: wire,
	})
	rs, err := erasure.NewCodec(q.Small(), n)
	if err != nil {
		return nil, err
	}
	chunks, err := rs.Encode(data)
	if err != nil {
		return nil, err
	}
	mb := float64(len(data)) / 1e6
	enc := timeMedian(20*time.Millisecond, func() { chunks, err = rs.Encode(data) })
	if err != nil {
		return nil, err
	}
	out["erasure.encode_mb_s"] = mb / enc.Seconds()
	// Reconstruct from the last f+1 chunks, so every data chunk is decoded.
	tail := chunks[len(chunks)-q.Small():]
	var rebuilt []erasure.Chunk
	dec := timeMedian(20*time.Millisecond, func() { rebuilt, err = rs.Reconstruct(tail, len(data)) })
	if err != nil {
		return nil, err
	}
	if len(rebuilt) != n || !bytes.Equal(rebuilt[0].Data, chunks[0].Data) {
		return nil, errors.New("erasure driver: reconstruction differs from the encoding")
	}
	out["erasure.reconstruct_mb_s"] = mb / dec.Seconds()
	leaves := make([][]byte, len(chunks))
	for i, ch := range chunks {
		leaves[i] = ch.Data
	}
	tree := timeMedian(20*time.Millisecond, func() { _, err = merkle.New(leaves) })
	if err != nil {
		return nil, err
	}
	out["merkle.tree_us"] = float64(tree) / float64(time.Microsecond)
	return out, nil
}
