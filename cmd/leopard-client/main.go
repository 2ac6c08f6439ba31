// Command leopard-client runs one closed-loop authenticated client against
// a running leopard-node cluster: it signs each request with the key
// derived from the cluster seed, submits to f+1 replicas, collects signed
// ReplyMsgs and accepts a request only on an f+1 matching reply certificate
// (so at least one honest replica vouches for the committed result). On
// timeout it retransmits to a rotating f+1 window until every replica has
// been covered. It reports mean/p50/p99 latency and a log-scale histogram.
//
//	leopard-client -config cluster.json -origin 2 -count 100 -payload 128
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/obs"
	"leopard/internal/types"
)

func main() {
	var (
		configPath = flag.String("config", "cluster.json", "cluster config file")
		origin     = flag.Int("origin", 0, "replica the first transmission of each request goes to")
		count      = flag.Int("count", 100, "number of requests")
		payload    = flag.Int("payload", 128, "payload bytes per request")
		clientID   = flag.Uint64("client", 1, "client id (selects the signing key)")
		firstSeq   = flag.Uint64("first-seq", 0, "sequence number of the first request")
		retransmit = flag.Duration("retransmit", 2*time.Second, "retransmit patience per request")
	)
	flag.Parse()
	if err := run(*configPath, *origin, *count, *payload, *clientID, *firstSeq, *retransmit); err != nil {
		log.Fatal(err)
	}
}

type clusterConfig struct {
	Replicas    []string `json:"replicas"`
	ClientPorts []string `json:"clientPorts"`
	Seed        string   `json:"seed"`
	Clients     int      `json:"clients"`
}

func run(configPath string, origin, count, payload int, clientID, firstSeq uint64, retransmit time.Duration) error {
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	var cfg clusterConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return err
	}
	n := len(cfg.ClientPorts)
	if n == 0 {
		return fmt.Errorf("cluster config has no client ports")
	}
	if len(cfg.Replicas) != n {
		return fmt.Errorf("cluster config has %d replicas but %d client ports", len(cfg.Replicas), n)
	}
	if payload < 8 {
		return fmt.Errorf("payload must be at least 8 bytes (the sequence-number prefix), got %d", payload)
	}
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return err
	}
	// The replica suite's public keys, derived from the same cluster seed
	// the replicas use: replies are only counted toward a certificate after
	// their signature share verifies against the claimed signer's key.
	suite, err := crypto.NewEd25519Suite(n, []byte(cfg.Seed))
	if err != nil {
		return err
	}
	numClients := cfg.Clients
	if numClients <= 0 {
		numClients = 1024
	}
	keys, err := client.NewKeychain(numClients, []byte(cfg.Seed))
	if err != nil {
		return err
	}
	if clientID >= uint64(numClients) {
		return fmt.Errorf("client id %d outside the cluster's key space of %d", clientID, numClients)
	}
	if origin < 0 || origin >= n {
		return fmt.Errorf("origin replica %d has no client port", origin)
	}

	// Dial every replica's client port up front; replies from all of them
	// funnel into one channel. A replica that is down just contributes no
	// replies (and swallows the sends aimed at it).
	replies := make(chan client.Reply, 256)
	conns := make([]net.Conn, n)
	for i, addr := range cfg.ClientPorts {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			log.Printf("replica %d (%s) unreachable: %v", i, addr, err)
			continue
		}
		defer conn.Close()
		conns[i] = conn
		go readReplies(conn, suite, replies)
	}

	session := client.NewSession(client.SessionConfig{
		ClientID:        clientID,
		F:               q.F,
		RetransmitAfter: retransmit,
		FirstSeq:        firstSeq,
	})
	send := func(req types.Request, sig []byte, targets []types.ReplicaID) {
		buf, err := leopard.EncodeMessage(&leopard.RequestMsg{Req: req, Sig: sig})
		if err != nil {
			return
		}
		for _, id := range targets {
			if conns[id] != nil {
				// A lost submission is covered by retransmission.
				_ = client.WriteFrame(conns[id], buf)
			}
		}
	}

	var lat obs.LatencyRecorder
	var sig []byte
	start := time.Now()
	body := make([]byte, payload)
	for int(session.Accepted()) < count {
		now := time.Since(start)
		switch {
		case !session.InFlight():
			binary.BigEndian.PutUint64(body[:8], session.Seq())
			req := session.Begin(now, body)
			if sig, err = keys.Sign(req); err != nil {
				return err
			}
			send(req, sig, client.RetransmitSet(n, q.F, 0, types.ReplicaID(origin)))
		case session.Due(now):
			req := session.Retransmit(now)
			send(req, sig, client.RetransmitSet(n, q.F, session.Attempt(), types.ReplicaID(origin)))
		}
		select {
		case r := <-replies:
			if ok, l := session.OnReply(time.Since(start), r); ok {
				lat.Add(l)
			}
		case <-time.After(10 * time.Millisecond):
		}
		if time.Since(start) > time.Duration(count)*retransmit+60*time.Second {
			break
		}
	}

	if lat.Count() == 0 {
		return fmt.Errorf("no reply certificates completed")
	}
	fmt.Printf("accepted %d/%d requests in %v (%d retransmissions)\n",
		lat.Count(), count, time.Since(start).Round(time.Millisecond), session.Retransmits())
	fmt.Printf("latency: mean=%v p50=%v p99=%v\n", lat.Mean(), lat.Percentile(50), lat.Percentile(99))
	fmt.Print(lat.Histogram())
	return nil
}

// maxReplyFrame caps one reply frame.
const maxReplyFrame = 1 << 20

// readReplies decodes ReplyMsg frames off one replica connection and drops
// any reply whose signature share does not verify: Share.Signer is
// attacker-controlled wire data, and the f+1 certificate rule only holds if
// each counted reply is provably from the distinct replica it names — an
// unverified reply would let a single Byzantine replica (or a tampered
// connection) forge a full certificate over an arbitrary result.
func readReplies(conn net.Conn, suite crypto.Suite, out chan<- client.Reply) {
	for {
		frame, err := client.ReadFrame(conn, maxReplyFrame)
		if err != nil {
			return
		}
		msg, err := leopard.DecodeMessage(frame)
		if err != nil {
			return
		}
		m, ok := msg.(*leopard.ReplyMsg)
		if !ok {
			continue
		}
		digest := client.ReplyDigest(m.Client, m.Seq, m.SN, m.Result)
		if suite.VerifyShare(digest, m.Share) != nil {
			continue
		}
		out <- client.Reply{
			Client: m.Client, Seq: m.Seq, SN: m.SN, Result: m.Result,
			Replica: m.Share.Signer,
		}
	}
}
