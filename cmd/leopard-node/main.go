// Command leopard-node runs one Leopard replica over real TCP from a JSON
// cluster configuration, plus a client port accepting request submissions.
//
// Cluster config (shared by all replicas):
//
//	{
//	  "replicas": ["127.0.0.1:7000", "127.0.0.1:7001", ...],
//	  "clientPorts": ["127.0.0.1:8000", "127.0.0.1:8001", ...],
//	  "seed": "dev-cluster-seed",
//	  "datablockSize": 500,
//	  "bftBlockSize": 10
//	}
//
// Run: leopard-node -config cluster.json -id 2
//
// Client wire protocol (on the replica's client port): each frame is
// 4-byte big-endian length + body; a submission body is an encoded
// leopard.RequestMsg (the client-signed request), and the replica answers
// each executed request with an encoded leopard.ReplyMsg — a signed
// (serial number, result) claim the client aggregates into an f+1 reply
// certificate (see cmd/leopard-client). Client keys are derived from the
// cluster seed; "clients" bounds the registered key space.
//
// With -data-dir the replica is durable: executed blocks go to a
// segmented CRC-checked write-ahead log, stable checkpoints anchor it, and
// a restart with the same directory recovers locally then state-transfers
// whatever the cluster decided in the meantime. Each replica needs its own
// directory.
//
// With -status the replica serves its unified metrics registry over HTTP:
// GET /metrics is the Prometheus text exposition and GET /status a JSON
// snapshot of the same registry — both views are generated from one source
// of truth, so adding a counter to leopard.Stats or transport.StreamStats
// surfaces on both endpoints with no hand edits. Each scrape re-binds the
// node's counters on the runtime's apply loop via Inject — the node is a
// single-goroutine state machine, so Stats()/ExecutedTo() must never be
// read directly from an HTTP handler goroutine. -pprof additionally mounts
// net/http/pprof profiling handlers on the status listener.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/mempool"
	"leopard/internal/obs"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/transport/tcp"
	"leopard/internal/types"
)

// ClusterConfig is the JSON file shared by every replica and client.
type ClusterConfig struct {
	Replicas      []string `json:"replicas"`
	ClientPorts   []string `json:"clientPorts"`
	Seed          string   `json:"seed"`
	DatablockSize int      `json:"datablockSize"`
	BFTBlockSize  int      `json:"bftBlockSize"`
	// Clients is the size of the registered client key space; client i
	// signs with the key derived from (seed, i). Zero means 1024.
	Clients int `json:"clients"`
}

func main() {
	var (
		configPath = flag.String("config", "cluster.json", "cluster config file")
		id         = flag.Int("id", -1, "replica id")
		statusAddr = flag.String("status", "", "HTTP observability listen address serving /metrics and /status (empty disables)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ on the -status listener")
		dataDir    = flag.String("data-dir", "", "durable state directory for this replica (empty runs in-memory); "+
			"holds the executed-block WAL, the stable-checkpoint anchor and replica metadata — "+
			"on restart the replica recovers from it and state-transfers the rest from peers")
	)
	flag.Parse()
	if err := run(*configPath, *id, *statusAddr, *pprofOn, *dataDir); err != nil {
		log.Fatal(err)
	}
}

func run(configPath string, id int, statusAddr string, pprofOn bool, dataDir string) error {
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	var cfg ClusterConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parse %s: %w", configPath, err)
	}
	n := len(cfg.Replicas)
	if id < 0 || id >= n {
		return fmt.Errorf("id %d outside cluster of %d replicas", id, n)
	}
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return err
	}
	suite, err := crypto.NewEd25519Suite(n, []byte(cfg.Seed))
	if err != nil {
		return err
	}
	var store storage.Store
	if dataDir != "" {
		wal, err := storage.Open(dataDir, storage.Options{})
		if err != nil {
			return fmt.Errorf("open data dir %s: %w", dataDir, err)
		}
		defer wal.Close()
		store = wal
		log.Printf("replica %d: durable state in %s", id, dataDir)
	}
	numClients := cfg.Clients
	if numClients <= 0 {
		numClients = 1024
	}
	keys, err := client.NewKeychain(numClients, []byte(cfg.Seed))
	if err != nil {
		return err
	}
	// One registry feeds both HTTP views; the tracer keeps a ring of
	// recent lifecycle events and mirrors per-kind counts into the
	// registry so the event stream shows up on /metrics too. Both are
	// only worth the atomics when something will scrape them.
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if statusAddr != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(obs.DefaultRingCap)
		tracer.MirrorCounts(reg, "leopard")
	}
	node, err := leopard.NewNode(leopard.Config{
		ID:            types.ReplicaID(id),
		Quorum:        q,
		Suite:         suite,
		DatablockSize: cfg.DatablockSize,
		BFTBlockSize:  cfg.BFTBlockSize,
		Store:         store,
		Verifier:      keys.Verifier(),
		Tracer:        tracer,
	})
	if err != nil {
		return err
	}

	hub := newReplyHub()
	node.SetReplySink(hub.notify)

	rt, err := tcp.New(tcp.Config{
		Self:   types.ReplicaID(id),
		Addrs:  cfg.Replicas,
		Codec:  leopard.WireCodec{},
		Tracer: tracer,
	}, node)
	if err != nil {
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var wg sync.WaitGroup
	if statusAddr != "" {
		statusLn, err := net.Listen("tcp", statusAddr)
		if err != nil {
			return fmt.Errorf("status listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
			if err := refresh(reg, rt, node, n); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(reg.Snapshot())
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
			if err := refresh(reg, rt, node, n); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		if pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("replica %d: pprof on http://%s/debug/pprof/", id, statusAddr)
		}
		srv := &http.Server{Handler: mux}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ctx.Done()
			srv.Close()
			statusLn.Close()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Serve(statusLn)
		}()
		log.Printf("replica %d: observability on http://%s/metrics and /status", id, statusAddr)
	} else if pprofOn {
		return errors.New("-pprof requires -status (profiling handlers mount on the status listener)")
	}
	if len(cfg.ClientPorts) == n {
		ln, err := net.Listen("tcp", cfg.ClientPorts[id])
		if err != nil {
			return fmt.Errorf("client listen: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ctx.Done()
			ln.Close()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveClients(ln, rt, node, hub)
		}()
		log.Printf("replica %d: consensus on %s, clients on %s", id, cfg.Replicas[id], cfg.ClientPorts[id])
	} else {
		log.Printf("replica %d: consensus on %s (no client port configured)", id, cfg.Replicas[id])
	}

	err = rt.Run(ctx)
	// Release the listener goroutines before waiting on them — Run can
	// return (e.g. a failed listen) without the signal context firing.
	cancel()
	wg.Wait()
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// refresh re-binds the replica's counters into the registry for one
// scrape. Node counters are read under the runtime's serialization: the
// closure runs on the apply loop, the only goroutine allowed to touch node
// state. Every exported numeric field of leopard.Stats becomes a
// leopard_* gauge via SetStruct, so new stats fields surface on /metrics
// and /status without touching this file. nReplicas is the cluster size,
// for summing per-peer transport counters.
func refresh(reg *obs.Registry, rt *tcp.Runtime, node *leopard.Node, nReplicas int) error {
	done := make(chan struct{})
	err := rt.Inject(func(now time.Duration, out transport.Sink) {
		defer close(done)
		reg.SetStruct("leopard", node.Stats())
		reg.Gauge("leopard_now_seconds", "runtime clock at scrape time").Set(now.Seconds())
		reg.Gauge("leopard_leader", "leader replica id in the current view").SetInt(int64(node.Leader()))
		reg.Gauge("leopard_executed_to", "execution frontier sequence number").SetInt(int64(node.ExecutedTo()))
	})
	if err != nil {
		return err
	}
	// The closure may be enqueued but never run if the runtime stops
	// first; waiting on done alone would hang the scrape forever.
	select {
	case <-done:
	case <-rt.Done():
		// The bind may have completed in the same instant the runtime
		// stopped; prefer it over the shutdown error.
		select {
		case <-done:
		default:
			return errors.New("runtime stopped")
		}
	}
	// Transport-side counters live behind their own locks, not the apply
	// loop, so they are read here rather than inside the Inject closure.
	reg.SetStruct("leopard_stream", rt.StreamTotals())
	var drops int64
	for i := 0; i < nReplicas; i++ {
		drops += rt.Drops(types.ReplicaID(i))
	}
	reg.Gauge("leopard_dropped_frames", "inbound frames dropped by the control-queue bound, summed over peers").SetInt(drops)
	return nil
}

// clientConn serializes reply writes to one client connection.
type clientConn struct {
	mu   sync.Mutex
	conn net.Conn
	// dropped is set once the connection has left the hub; replyHub.mu
	// guards it.
	dropped bool
}

func (c *clientConn) writeFrame(body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A failed write means the client hung up; its read loop drops the
	// connection from the hub.
	_ = client.WriteFrame(c.conn, body)
}

// replyHub routes signed execution replies back to the client connection
// that submitted (or retransmitted) each request. The node emits a ReplyMsg
// for every executed request; only requests some connection registered
// interest in are forwarded, the rest are dropped here.
type replyHub struct {
	mu      sync.Mutex
	waiters map[types.RequestID]*clientConn
}

func newReplyHub() *replyHub {
	return &replyHub{waiters: make(map[types.RequestID]*clientConn)}
}

// expect registers conn as the reply destination for id and returns the
// waiter it displaced. A retransmission through a newer connection takes
// the slot over.
func (h *replyHub) expect(id types.RequestID, conn *clientConn) (prev *clientConn) {
	h.mu.Lock()
	prev = h.waiters[id]
	h.waiters[id] = conn
	h.mu.Unlock()
	return prev
}

// restore undoes an expect: the displaced waiter gets the slot back, unless
// there was none or its connection has closed since.
func (h *replyHub) restore(id types.RequestID, prev *clientConn) {
	h.mu.Lock()
	if prev != nil && !prev.dropped {
		h.waiters[id] = prev
	} else {
		delete(h.waiters, id)
	}
	h.mu.Unlock()
}

// drop forgets every registration pointing at conn (connection closed).
func (h *replyHub) drop(conn *clientConn) {
	h.mu.Lock()
	conn.dropped = true
	for id, c := range h.waiters {
		if c == conn {
			delete(h.waiters, id)
		}
	}
	h.mu.Unlock()
}

// notify runs on the runtime's apply loop: it must not block, so the frame
// write happens on a fresh goroutine.
func (h *replyHub) notify(m leopard.ReplyMsg) {
	id := types.RequestID{Client: m.Client, Seq: m.Seq}
	h.mu.Lock()
	conn := h.waiters[id]
	delete(h.waiters, id)
	h.mu.Unlock()
	if conn == nil {
		return
	}
	go func() {
		buf, err := leopard.EncodeMessage(&m)
		if err != nil {
			return
		}
		conn.writeFrame(buf)
	}()
}

// serveClients handles client submissions on the client port.
func serveClients(ln net.Listener, rt *tcp.Runtime, node *leopard.Node, hub *replyHub) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go handleClient(conn, rt, node, hub)
	}
}

// maxClientFrame caps one submitted request frame.
const maxClientFrame = 16 << 20

func handleClient(conn net.Conn, rt *tcp.Runtime, node *leopard.Node, hub *replyHub) {
	cc := &clientConn{conn: conn}
	defer func() {
		hub.drop(cc)
		conn.Close()
	}()
	for {
		frame, err := client.ReadFrame(conn, maxClientFrame)
		if err != nil {
			return
		}
		msg, err := leopard.DecodeMessage(frame)
		if err != nil {
			return
		}
		req, ok := msg.(*leopard.RequestMsg)
		if !ok {
			return
		}
		// The waiter is registered inside the Inject closure, ahead of
		// admission, and the registration is undone if the signature is bad:
		// RequestID is only (client, seq), so a request that fails
		// verification must never take over another client's reply slot
		// (suppressing its reply) or grow the waiters map from an
		// unauthenticated connection. Doing both on the apply loop makes the
		// interim registration unobservable — every reply fires on the apply
		// loop too, and SubmitSigned emits none before it has verified the
		// signature. It has to come first because a request that is already
		// confirmed is answered from the reply cache inside SubmitSigned, and
		// that reply goes to whoever is registered then. Duplicate
		// submissions (retransmits, DupLive) still move the reply slot here.
		if err := rt.Inject(func(now time.Duration, out transport.Sink) {
			id := req.Req.ID()
			prev := hub.expect(id, cc)
			if node.SubmitSigned(now, req.Req, req.Sig) == mempool.BadSignature {
				hub.restore(id, prev)
			}
		}); err != nil {
			return
		}
	}
}
