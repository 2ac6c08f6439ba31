// Package workload generates the deterministic request streams the harness
// injects, open loop at a fixed rate or closed loop at saturation (mempools
// kept topped up, as in the paper's stress tests).
package workload

import "leopard/internal/types"

// Generator produces a deterministic stream of fixed-size requests.
// Requests share one payload buffer: identity lives in (ClientID, Seq), and
// consensus treats payloads as opaque, so sharing keeps multi-million-
// request simulations within memory. Callers that mutate payloads must
// copy them first.
//
// Each client's seqs are emitted in order from zero, and a client's stream
// must all be submitted to the same replica: a replica anchors a client's
// watermark at the first seq it admits, or past the first it sees
// confirmed, and refuses lower seqs as stale, so a stream striped across
// replicas can lose requests whose successors confirmed first. Give each
// replica its own generator over a disjoint client range (NewGeneratorAt)
// rather than striping one stream across replicas.
type Generator struct {
	payload     []byte
	firstClient uint64
	nextClient  uint64
	nextSeq     uint64
	numClients  uint64
}

// NewGenerator creates a generator producing payloadSize-byte requests from
// numClients synthetic clients with IDs starting at zero.
func NewGenerator(payloadSize, numClients int) *Generator {
	return NewGeneratorAt(payloadSize, numClients, 0)
}

// NewGeneratorAt is NewGenerator with the client-ID range starting at
// firstClient, so multiple generators can produce disjoint client
// populations (one per replica).
func NewGeneratorAt(payloadSize, numClients int, firstClient uint64) *Generator {
	if numClients < 1 {
		numClients = 1
	}
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(0xa5 ^ i)
	}
	return &Generator{payload: payload, firstClient: firstClient, numClients: uint64(numClients)}
}

// Next returns the next request in the stream.
func (g *Generator) Next() types.Request {
	r := types.Request{ClientID: g.firstClient + g.nextClient, Seq: g.nextSeq, Payload: g.payload}
	g.nextClient++
	if g.nextClient == g.numClients {
		g.nextClient = 0
		g.nextSeq++
	}
	return r
}
