package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/mempool"
	"leopard/internal/obs"
	"leopard/internal/protocol"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// This file implements the `clients` scenario: the closed-loop end of the
// authenticated client serving path. Where every other experiment drives the
// cluster with the harness's synthetic saturation injector, this one runs
// real client sessions — each signs its requests (internal/client), submits
// to an origin replica, collects signed replies, accepts on an f+1 matching
// certificate and immediately issues its next request. The run crashes and
// restarts the leader mid-measurement and silences one replica's reply path
// (a Byzantine reply suppressor), so the numbers show the serving path —
// admission signature checks, nonce bookkeeping, retransmission, reply
// certificates — staying live under the faults it was built for.

// ClientsResult is the outcome of one clients-scenario run.
type ClientsResult struct {
	N       int
	Clients int
	// Byzantine is the replica whose reply path is suppressed.
	Byzantine types.ReplicaID

	Accepted    int64 // reply certificates completed inside the window
	Retransmits int64 // client retransmissions over the whole run
	MeanLat     time.Duration
	P50Lat      time.Duration
	P99Lat      time.Duration

	// Cluster-wide admission and reply counters (summed over replicas).
	Admitted    int64
	Rejected    int64
	RateLimited int64
	BadSigs     int64
	Replies     int64

	FinalView types.View
	Histogram string
}

// clientsDriver owns every client session and moves bytes between clients
// and replicas deterministically: a single ticker walks the sessions in
// index order, hands each submission to its replica's SubmitSigned as it
// goes, and replies are scheduled back through the simnet event queue.
type clientsDriver struct {
	c     *harness.Cluster
	nodes []*leopard.Node
	keys  *client.Keychain
	n, f  int

	sessions []*client.Session
	sigs     [][]byte // signature of each session's in-flight request
	origin   []types.ReplicaID

	// down mirrors the scenario's crash schedule: submissions to a crashed
	// replica are dropped (connection refused), exactly like the replies it
	// cannot send.
	down map[types.ReplicaID]bool

	measureFrom time.Duration
	lat         obs.LatencyRecorder
	accepted    int64
}

// payload builds the deterministic request payload for (client, seq).
func clientPayload(clientID, seq uint64) []byte {
	p := make([]byte, PayloadSize)
	binary.BigEndian.PutUint64(p[0:8], clientID)
	binary.BigEndian.PutUint64(p[8:16], seq)
	return p
}

// tick walks every session once: idle sessions begin their next request at
// their origin replica; overdue ones retransmit to a rotating f+1 window.
func (d *clientsDriver) tick(now time.Duration) {
	for i, s := range d.sessions {
		switch {
		case !s.InFlight():
			req := s.Begin(now, clientPayload(uint64(i), s.Seq()))
			sig, err := d.keys.Sign(req)
			if err != nil {
				continue
			}
			d.sigs[i] = sig
			d.submit(now, d.origin[i], req, sig)
		case s.Due(now):
			req := s.Retransmit(now)
			for _, id := range client.RetransmitSet(d.n, d.f, s.Attempt(), d.origin[i]) {
				d.submit(now, id, req, d.sigs[i])
			}
		}
	}
}

// submit delivers one signed request to replica id, unless it is down, and
// counts its bytes into the replica's ingress figures.
func (d *clientsDriver) submit(now time.Duration, id types.ReplicaID, req types.Request, sig []byte) {
	if d.down[id] {
		return
	}
	d.nodes[id].SubmitSigned(now, req, sig)
	d.c.Net.Stats(id).AddReceived(transport.ClassRequest, req.Size()+client.SignatureSize)
}

// onReply folds a replica's reply into the owning session's certificate.
func (d *clientsDriver) onReply(now time.Duration, r client.Reply) {
	if r.Client >= uint64(len(d.sessions)) {
		return
	}
	ok, lat := d.sessions[r.Client].OnReply(now, r)
	if ok && now >= d.measureFrom {
		d.accepted++
		d.lat.Add(lat)
	}
}

// ClientsRows is the clients scenario at each scale and number of client
// sessions.
type ClientsRows []ClientsResult

func clientsScenario(s Sweep) (ClientsRows, error) {
	return each(s, func(n, sessions int) (ClientsResult, error) {
		return clientsRun(n, sessions, defaultClientsParams())
	})
}

// Print renders each result; two identically-seeded runs must print
// identically.
func (rows ClientsRows) Print(w io.Writer) {
	for _, r := range rows {
		fmt.Fprintf(w, "n=%d clients=%d byzantine-replica=%d final-view=%d\n",
			r.N, r.Clients, r.Byzantine, r.FinalView)
		fmt.Fprintf(w, "accepted=%d retransmits=%d p50=%v p99=%v mean=%v\n",
			r.Accepted, r.Retransmits, r.P50Lat, r.P99Lat, r.MeanLat)
		fmt.Fprintf(w, "admitted=%d rejected=%d rate-limited=%d bad-sigs=%d replies-sent=%d\n",
			r.Admitted, r.Rejected, r.RateLimited, r.BadSigs, r.Replies)
		fmt.Fprint(w, r.Histogram)
	}
}

// clientsParams are the scenario's schedule knobs. The defaults are the CLI
// run; the regression tests compress every window so two full runs (the
// determinism check) stay affordable.
type clientsParams struct {
	TickEvery  time.Duration // client driver granularity
	ReplyDelay time.Duration // client<->replica link latency
	Warmup     time.Duration
	Measure    time.Duration
	// Leader churn inside the measurement window: crash the initial leader
	// CrashAfter into it, bring it back (state intact) at RestartAfter.
	CrashAfter   time.Duration
	RestartAfter time.Duration
	Retransmit   time.Duration // per-session retransmit patience
	VCTimeout    time.Duration
}

func defaultClientsParams() clientsParams {
	return clientsParams{
		TickEvery:    5 * time.Millisecond,
		ReplyDelay:   200 * time.Microsecond,
		Warmup:       500 * time.Millisecond,
		Measure:      3 * time.Second,
		CrashAfter:   1 * time.Second,
		RestartAfter: 2 * time.Second,
		Retransmit:   400 * time.Millisecond,
		VCTimeout:    400 * time.Millisecond,
	}
}

func clientsRun(n, numClients int, p clientsParams) (ClientsResult, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return ClientsResult{}, err
	}
	suite, err := crypto.NewSimSuite(n, []byte("experiments"))
	if err != nil {
		return ClientsResult{}, err
	}
	keys, err := client.NewKeychain(numClients, []byte("clients-scenario"))
	if err != nil {
		return ClientsResult{}, err
	}
	verifier := keys.Verifier()
	net := netConfig()
	c, err := harness.NewCluster(harness.Options{
		N:           n,
		Net:         net,
		PayloadSize: PayloadSize,
		// No synthetic injection: the sessions are the workload.
		SaturationDepth: 0,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			return leopard.NewNode(leopard.Config{
				ID:            id,
				Quorum:        q,
				Suite:         suite,
				DatablockSize: 500,
				BFTBlockSize:  10,
				MaxParallel:   16,
				// The crash must trigger a real view change mid-run.
				ViewChangeTimeout: p.VCTimeout,
				Verifier:          verifier,
				// Generous per-client budget: honest closed-loop clients
				// (one request in flight each) must never trip it, so any
				// RateLimited count in the result is a red flag.
				Mempool: mempool.Limits{RatePerSec: 1000, RateBurst: 64},
			})
		},
	})
	if err != nil {
		return ClientsResult{}, err
	}

	d := &clientsDriver{
		c:        c,
		nodes:    leopardNodes(c),
		keys:     keys,
		n:        n,
		f:        q.F,
		sessions: make([]*client.Session, numClients),
		sigs:     make([][]byte, numClients),
		origin:   make([]types.ReplicaID, numClients),
		down:     make(map[types.ReplicaID]bool),
	}
	initialLeader := c.Replicas[0].Leader()
	for i := range d.sessions {
		d.sessions[i] = client.NewSession(client.SessionConfig{
			ClientID:        uint64(i),
			F:               q.F,
			RetransmitAfter: p.Retransmit,
		})
		// Spread origins over the replicas that pack datablocks: the leader
		// never packs its own, so clients that would land there shift over
		// (a client of the real deployment would learn the same from its
		// first retransmission).
		o := types.ReplicaID(i % n)
		if o == initialLeader {
			o = types.ReplicaID((i + 1) % n)
		}
		d.origin[i] = o
	}

	// The Byzantine replica participates in agreement but never answers
	// clients: its reply sink stays unset. Replica n-1 is never the leader
	// in this run's view window, so consensus keeps it honest-looking.
	byz := types.ReplicaID(n - 1)
	for i, node := range d.nodes {
		if types.ReplicaID(i) == byz {
			continue
		}
		node.SetReplySink(func(m leopard.ReplyMsg) {
			reply := client.Reply{
				Client: m.Client, Seq: m.Seq, SN: m.SN, Result: m.Result,
				Replica: m.Share.Signer,
			}
			c.Net.ScheduleCall(c.Net.Now()+p.ReplyDelay, func(now time.Duration) {
				d.onReply(now, reply)
			})
		})
	}

	c.Start()
	var driveTick func(at time.Duration)
	driveTick = func(at time.Duration) {
		c.Net.ScheduleCall(at, func(now time.Duration) {
			d.tick(now)
			driveTick(now + p.TickEvery)
		})
	}
	driveTick(c.Net.Now())

	c.Net.Run(c.Net.Now() + p.Warmup)
	d.measureFrom = c.Net.Now()
	start := c.Net.Now()
	c.Net.ScheduleCall(start+p.CrashAfter, func(time.Duration) {
		d.down[initialLeader] = true
		c.Net.Crash(initialLeader)
	})
	c.Net.ScheduleCall(start+p.RestartAfter, func(time.Duration) {
		d.down[initialLeader] = false
		c.Net.Restart(initialLeader)
	})
	c.Net.Run(start + p.Measure)

	res := ClientsResult{
		N:         n,
		Clients:   numClients,
		Byzantine: byz,
		Accepted:  d.accepted,
		MeanLat:   d.lat.Mean(),
		P50Lat:    d.lat.Percentile(50),
		P99Lat:    d.lat.Percentile(99),
		FinalView: d.nodes[0].View(),
		Histogram: d.lat.Histogram(),
	}
	for _, s := range d.sessions {
		res.Retransmits += s.Retransmits()
	}
	for _, node := range d.nodes {
		st := node.Stats()
		res.Admitted += st.AdmittedRequests
		res.Rejected += st.RejectedRequests
		res.RateLimited += st.RateLimited
		res.BadSigs += st.BadSignatures
		res.Replies += st.RepliesSent
	}
	if res.Accepted == 0 {
		return res, fmt.Errorf("no reply certificates completed (n=%d, %d clients)", n, numClients)
	}
	return res, nil
}
