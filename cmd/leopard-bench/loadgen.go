package main

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"time"
)

// The load generator is one goroutine multiplexing every client session of
// a run. It signs each request inline, submits it on the home replica's
// apply loop, folds the replicas' signed replies into per-session f+1
// certificates and retransmits the way cmd/leopard-client does. The
// replicas' reply sinks and snapshot closures run on the apply loops; they
// only append to the mailbox below and never wait for the generator.

// mailbox carries replies and snapshots from the apply loops to the
// generator.
type mailbox struct {
	mu      sync.Mutex
	replies []reply
	snaps   []taggedSnap
	// wake holds at most one pending wake-up; a sender that finds it full
	// knows the generator will look at the mailbox anyway.
	wake chan struct{}
}

// taggedSnap is a replica snapshot with the purpose it was asked for.
type taggedSnap struct {
	tag     int
	replica int
	at      time.Duration // generator clock when the snapshot was taken
	snap    replicaSnap
}

// Snapshot purposes.
const (
	tagSample = iota // periodic sampler
	tagBegin         // start of the measured window
	tagEnd           // end of the measured window
	numTags
)

func newMailbox() *mailbox { return &mailbox{wake: make(chan struct{}, 1)} }

func (m *mailbox) notify() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *mailbox) putReply(r reply) {
	m.mu.Lock()
	m.replies = append(m.replies, r)
	m.mu.Unlock()
	m.notify()
}

func (m *mailbox) putSnap(s taggedSnap) {
	m.mu.Lock()
	m.snaps = append(m.snaps, s)
	m.mu.Unlock()
	m.notify()
}

// take swaps the mailbox's contents for the (emptied) slices passed in.
func (m *mailbox) take(replies []reply, snaps []taggedSnap) ([]reply, []taggedSnap) {
	m.mu.Lock()
	replies, m.replies = m.replies, replies[:0]
	snaps, m.snaps = m.snaps, snaps[:0]
	m.mu.Unlock()
	return replies, snaps
}

// session is one client: the program's session state machine plus what the
// generator tracks about its request in flight.
type session struct {
	cs      clientSession
	home    int
	due     time.Duration // due time (open loop) or submit time (closed loop)
	sig     []byte
	counted bool // due inside the measured window
	failed  bool // already counted as failed
	sampled bool // reply shares are kept and verified after the window
	replies []reply
}

// acceptance is one request accepted inside the measured window.
type acceptance struct {
	at  time.Duration
	lat time.Duration
}

// depthSample is one sampler reading of a replica's mempool.
type depthSample struct {
	at              time.Duration
	pending, queued int
}

type generator struct {
	spec  workloadSpec
	seed  int64
	c     *cluster
	box   *mailbox
	start time.Time
	timer *time.Timer

	sess     []session
	pool     [][]byte        // seeded payload bodies
	idle     []int           // open loop: idle sessions, oldest first
	backlog  []time.Duration // open loop: due times of arrivals waiting for a session
	arrivals []time.Duration // open loop: seeded due times, relative to traffic start
	nextArr  int
	traffic  time.Duration // clock reading at which traffic started
	issuing  bool
	open     bool

	t0, t1 time.Duration // measured window on the generator clock

	// Sampler state. sampling is on for traced runs and for the crash
	// workload (which follows the leader through it).
	sampling   bool
	nextSample time.Duration
	nextScan   time.Duration
	leader     int
	leaderSeen []int    // leader last reported by each replica, -1 before its first sample
	executedTo []uint64 // execution frontier last reported by each replica
	depths     []depthSample

	// Crash bookkeeping.
	restartedAt time.Duration
	restarted   int // replica being watched for catch-up, -1 if none
	frontier    uint64
	catchup     time.Duration

	// Accounting.
	accepts       []acceptance
	totalAccepted int64
	attempted     int64
	failed        int64
	lateAccepted  int64
	signNs        int64
	signs         int64
	late          []float64             // open loop: how late an arrival with a session to hand was sent, ms
	certs         []reply               // replies of sampled accepted requests
	snaps         [numTags][]taggedSnap // window-edge snapshots, by tag

	scratchReplies []reply
	scratchSnaps   []taggedSnap
}

func newGenerator(spec workloadSpec, seed int64, c *cluster, box *mailbox, sampling bool) *generator {
	g := &generator{
		spec: spec, seed: seed, c: c, box: box, start: time.Now(),
		timer:      time.NewTimer(time.Hour),
		open:       spec.OpenRate > 0,
		sampling:   sampling,
		leader:     -1,
		restarted:  -1,
		leaderSeen: make([]int, c.n()),
		executedTo: make([]uint64, c.n()),
	}
	for i := range g.leaderSeen {
		g.leaderSeen[i] = -1
	}
	g.pool = payloadPool(seed, spec.Payload)
	g.sess = make([]session, spec.Sessions)
	for i := range g.sess {
		g.sess[i].cs = newClientSession(uint64(i), c.f())
		g.sess[i].home = -1
	}
	return g
}

func (g *generator) clock() time.Duration { return time.Since(g.start) }

// mix is splitmix64 over the seed and a request's identity: everything
// that is random about a request is a function of (seed, client, seq).
func mix(seed int64, client, seq uint64) uint64 {
	z := uint64(seed) + client*0x9e3779b97f4a7c15 + seq*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// payloadPool returns the seeded bodies request payloads are cut from.
func payloadPool(seed int64, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]byte, 64)
	for i := range pool {
		pool[i] = make([]byte, size)
		rng.Read(pool[i])
	}
	return pool
}

// payload builds the request body of (client, seq): a fresh buffer (the
// replicas keep a reference to it), filled from the seeded pool and stamped
// with the request's identity.
func (g *generator) payload(client, seq uint64) []byte {
	buf := make([]byte, g.spec.Payload)
	copy(buf, g.pool[mix(g.seed, client, seq)%uint64(len(g.pool))])
	binary.BigEndian.PutUint64(buf[0:], client)
	binary.BigEndian.PutUint64(buf[8:], seq)
	return buf
}

// openSchedule returns the seeded due times of an open loop at rate
// requests per second over total, relative to the start of traffic.
func openSchedule(seed int64, rate float64, total time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e)) // "open"
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= total {
			return out
		}
		out = append(out, d)
	}
}

// setHomes homes every session round-robin on the replicas that pack
// datablocks: all of them under rotation, all but the leader otherwise.
func (g *generator) setHomes(leader int) {
	g.leader = leader
	var packers []int
	for i := 0; i < g.c.n(); i++ {
		if g.c.full(i) && (g.spec.Rotate || i != leader) {
			packers = append(packers, i)
		}
	}
	if len(packers) == 0 {
		return
	}
	k := 0
	for i := range g.sess {
		s := &g.sess[i]
		if s.home >= 0 && (g.spec.Rotate || s.home != leader) && g.c.full(s.home) {
			continue // keep a home that still packs
		}
		s.home = packers[k%len(packers)]
		k++
	}
}

// begin starts session idx's next request, due at the given time.
func (g *generator) begin(idx int, due time.Duration) {
	s := &g.sess[idx]
	now := g.clock()
	seq := s.cs.seq()
	req := s.cs.begin(now, g.payload(uint64(idx), seq))
	t := time.Now()
	sig, err := g.c.sign(req)
	g.signNs += int64(time.Since(t))
	g.signs++
	if err != nil {
		panic("leopard-bench: sign: " + err.Error()) // the key space covers every session
	}
	s.sig, s.due, s.failed, s.replies = sig, due, false, nil
	s.counted = due >= g.t0 && due < g.t1
	s.sampled = s.counted && mix(g.seed, uint64(idx), seq)%verifyOneIn == 0
	if s.counted {
		g.attempted++
	}
	// A failed submit (replica down) is covered by retransmission.
	_ = g.c.submit(s.home, req, sig)
}

// probe sends the first request of session 0 and waits for its
// certificate: the end of cluster set-up.
func (g *generator) probe(timeout time.Duration) bool {
	g.begin(0, g.clock())
	deadline := g.clock() + timeout
	for g.totalAccepted == 0 && g.clock() < deadline {
		g.pump(g.clock() + 5*time.Millisecond)
	}
	return g.totalAccepted > 0
}

// startTraffic fixes the measured window and starts the load.
func (g *generator) startTraffic(warmup, window time.Duration) {
	g.traffic = g.clock()
	g.t0 = g.traffic + warmup
	g.t1 = g.t0 + window
	g.issuing = true
	if g.open {
		g.arrivals = openSchedule(g.seed, g.spec.OpenRate, warmup+window)
		g.idle = g.idle[:0] // the probe's session is idle again by now
		for i := range g.sess {
			g.idle = append(g.idle, i)
		}
		return
	}
	for i := range g.sess {
		if !g.sess[i].cs.inFlight() {
			g.begin(i, g.clock())
		}
	}
}

// stopTraffic ends the issue of new requests; in-flight ones drain.
func (g *generator) stopTraffic() { g.issuing = false }

// inFlight counts sessions still waiting for a certificate.
func (g *generator) inFlight() int {
	n := 0
	for i := range g.sess {
		if g.sess[i].cs.inFlight() {
			n++
		}
	}
	return n + len(g.backlog)
}

// pump runs the generator's event loop until the clock reaches deadline.
func (g *generator) pump(deadline time.Duration) {
	for {
		now := g.clock()
		if now >= deadline {
			return
		}
		g.drain()
		now = g.clock()
		g.dispatch(now)
		if now >= g.nextScan {
			g.scan(now)
			g.nextScan = now + 20*time.Millisecond
		}
		if g.sampling && now >= g.nextSample {
			g.sample(tagSample)
			g.nextSample = now + sampleEvery
			if g.restarted >= 0 {
				g.nextSample = now + 10*time.Millisecond
			}
		}
		wait := deadline - now
		if d := g.nextScan - now; d < wait {
			wait = d
		}
		if g.sampling {
			if d := g.nextSample - now; d < wait {
				wait = d
			}
		}
		if g.open && g.issuing && g.nextArr < len(g.arrivals) {
			if d := g.traffic + g.arrivals[g.nextArr] - now; d < wait {
				wait = d
			}
		}
		if wait <= 0 {
			continue
		}
		g.timer.Reset(wait)
		select {
		case <-g.box.wake:
		case <-g.timer.C:
		}
	}
}

// drain folds everything in the mailbox into the sessions.
func (g *generator) drain() {
	g.scratchReplies, g.scratchSnaps = g.box.take(g.scratchReplies, g.scratchSnaps)
	for _, r := range g.scratchReplies {
		idx := int(r.client)
		if idx >= len(g.sess) {
			continue
		}
		s := &g.sess[idx]
		if !s.cs.inFlight() || r.seq != s.cs.seq() {
			continue
		}
		if s.sampled {
			s.replies = append(s.replies, r)
		}
		now := g.clock()
		if s.cs.onReply(now, r) {
			g.accept(idx, now)
		}
	}
	for _, ts := range g.scratchSnaps {
		if ts.tag == tagSample {
			g.observe(ts)
		} else {
			g.snaps[ts.tag] = append(g.snaps[ts.tag], ts)
		}
	}
}

// accept records session idx's certificate and gives the session its next
// request.
func (g *generator) accept(idx int, now time.Duration) {
	s := &g.sess[idx]
	g.totalAccepted++
	switch {
	case s.failed:
		g.lateAccepted++
	case now >= g.t0 && now < g.t1:
		g.accepts = append(g.accepts, acceptance{at: now, lat: now - s.due})
	}
	if s.sampled {
		g.certs = append(g.certs, s.replies...)
	}
	if g.open {
		if len(g.backlog) > 0 {
			due := g.backlog[0]
			g.backlog = g.backlog[1:]
			g.begin(idx, due)
		} else {
			g.idle = append(g.idle, idx)
		}
		return
	}
	if g.issuing {
		g.begin(idx, now)
	}
}

// dispatch starts every open-loop arrival that is due: on the next idle
// session, or into the backlog when all sessions are busy. Either way the
// request is timed from its due time.
func (g *generator) dispatch(now time.Duration) {
	if !g.open || !g.issuing {
		return
	}
	for g.nextArr < len(g.arrivals) && g.traffic+g.arrivals[g.nextArr] <= now {
		due := g.traffic + g.arrivals[g.nextArr]
		g.nextArr++
		if len(g.idle) == 0 {
			g.backlog = append(g.backlog, due)
			continue
		}
		idx := g.idle[0]
		g.idle = g.idle[1:]
		if due >= g.t0 && due < g.t1 {
			g.late = append(g.late, float64(now-due)/float64(time.Millisecond))
		}
		g.begin(idx, due)
	}
}

// scan retransmits overdue requests to the rotating f+1 window and counts
// requests that have gone failAfter without a certificate.
func (g *generator) scan(now time.Duration) {
	for i := range g.sess {
		s := &g.sess[i]
		if !s.cs.inFlight() {
			continue
		}
		if !s.failed && now-s.due >= failAfter {
			s.failed = true
			if s.counted {
				g.failed++
			}
		}
		if s.cs.due(now) {
			req := s.cs.retransmit(now)
			for _, to := range retransmitTargets(g.c.n(), g.c.f(), s.cs.attempt(), s.home) {
				_ = g.c.submit(to, req, s.sig)
			}
		}
	}
}

// closeBooks counts what is still uncertified at the end of the drain.
func (g *generator) closeBooks() {
	for i := range g.sess {
		s := &g.sess[i]
		if s.cs.inFlight() && s.counted && !s.failed {
			s.failed = true
			g.failed++
		}
	}
	for _, due := range g.backlog {
		if due >= g.t0 && due < g.t1 {
			g.attempted++
			g.failed++
		}
	}
}

// retransmits sums the sessions' retransmission counters.
func (g *generator) retransmits() int64 {
	var n int64
	for i := range g.sess {
		n += g.sess[i].cs.retransmits()
	}
	return n
}

// sample asks every live replica for a snapshot, without waiting: the
// copies arrive through the mailbox.
func (g *generator) sample(tag int) {
	for i := 0; i < g.c.n(); i++ {
		g.c.snapshotAsync(i, func(s replicaSnap) {
			g.box.putSnap(taggedSnap{tag: tag, replica: i, at: g.clock(), snap: s})
		})
	}
}

// observe follows the cluster through the sampler: mempool depths, the
// leader (sessions homed on a new fixed leader move, since a leader does
// not pack), and a restarted replica's catch-up.
func (g *generator) observe(ts taggedSnap) {
	i := ts.replica
	g.executedTo[i] = ts.snap.ExecutedTo
	g.depths = append(g.depths, depthSample{at: ts.at, pending: ts.snap.Pending, queued: ts.snap.Queued})
	if !ts.snap.InViewChange {
		g.leaderSeen[i] = ts.snap.Leader
		agree := 0
		for j := 0; j < g.c.n(); j++ {
			if g.c.up(j) && g.leaderSeen[j] == ts.snap.Leader {
				agree++
			}
		}
		if ts.snap.Leader != g.leader && agree >= g.c.f()+1 {
			g.setHomes(ts.snap.Leader)
		}
	}
	if i == g.restarted && ts.at >= g.restartedAt && ts.snap.ExecutedTo >= g.frontier {
		g.catchup = ts.at - g.restartedAt
		g.restarted = -1
	}
}

// noteRestart starts watching replica i for catch-up to the frontier the
// live replicas were last seen at.
func (g *generator) noteRestart(i int) {
	g.restarted, g.restartedAt, g.frontier = i, g.clock(), 0
	for j := 0; j < g.c.n(); j++ {
		if j != i && g.executedTo[j] > g.frontier {
			g.frontier = g.executedTo[j]
		}
	}
	g.leaderSeen[i] = -1
}
