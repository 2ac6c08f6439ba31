package mempool

import (
	"testing"
	"time"

	"leopard/internal/types"
)

func req(client, seq uint64) types.Request {
	return types.Request{ClientID: client, Seq: seq, Payload: []byte("p")}
}

// TestRequestPoolFIFO: requests leave in admission order, and a seq above
// the client's next one is pending at once, not held back for the seqs
// between.
func TestRequestPoolFIFO(t *testing.T) {
	p := NewRequestPoolLimits(Limits{})
	seqs := []uint64{0, 3, 5, 2, 1, 4, 100, 6, 8, 7}
	for i, seq := range seqs {
		if v := p.Admit(req(1, seq), 0); v != Admitted {
			t.Fatalf("seq %d: verdict %v", seq, v)
		}
		if p.Len() != i+1 {
			t.Fatalf("Len = %d after seq %d, want %d", p.Len(), seq, i+1)
		}
	}
	out, _ := p.Extract(4)
	if len(out) != 4 {
		t.Fatalf("extracted %d", len(out))
	}
	for i, r := range out {
		if r.Seq != seqs[i] {
			t.Errorf("position %d holds seq %d; want FIFO order", i, r.Seq)
		}
	}
	if p.Len() != 6 {
		t.Errorf("Len after extract = %d", p.Len())
	}
}

func TestRequestPoolDedup(t *testing.T) {
	p := NewRequestPoolLimits(Limits{})
	if !p.Admit(req(1, 1), 0).OK() {
		t.Fatal("first add rejected")
	}
	if p.Admit(req(1, 1), 0).OK() {
		t.Fatal("duplicate pending request admitted")
	}
	out, _ := p.Extract(1)
	if len(out) != 1 {
		t.Fatal("extract failed")
	}
	// Extracted but not confirmed: may be re-added (retransmission).
	if !p.Admit(req(1, 1), 0).OK() {
		t.Fatal("re-add after extract rejected")
	}
	p.Extract(1)
	p.MarkConfirmed(req(1, 1).ID())
	if p.Admit(req(1, 1), 0).OK() {
		t.Fatal("confirmed request re-admitted")
	}
}

func TestRequestPoolOldestTimestamp(t *testing.T) {
	p := NewRequestPoolLimits(Limits{})
	p.Admit(req(1, 1), 5*time.Millisecond)
	p.Admit(req(1, 2), 9*time.Millisecond)
	_, oldest := p.Extract(2)
	if oldest != 5*time.Millisecond {
		t.Errorf("oldest = %v, want 5ms", oldest)
	}
	if _, oldest := p.Extract(1); oldest != 0 {
		t.Errorf("empty extract oldest = %v, want 0", oldest)
	}
}

func TestRequestPoolBytes(t *testing.T) {
	p := NewRequestPoolLimits(Limits{})
	r := types.Request{ClientID: 1, Seq: 1, Payload: make([]byte, 100)}
	p.Admit(r, 0)
	if p.Bytes() != r.Size() {
		t.Errorf("Bytes = %d, want %d", p.Bytes(), r.Size())
	}
	p.Extract(1)
	if p.Bytes() != 0 {
		t.Errorf("Bytes after drain = %d", p.Bytes())
	}
}

func TestRequestPoolExtractBounds(t *testing.T) {
	p := NewRequestPoolLimits(Limits{})
	if out, _ := p.Extract(0); out != nil {
		t.Error("Extract(0) must return nil")
	}
	if out, _ := p.Extract(-1); out != nil {
		t.Error("Extract(-1) must return nil")
	}
	p.Admit(req(1, 1), 0)
	out, _ := p.Extract(100)
	if len(out) != 1 {
		t.Errorf("Extract over-len returned %d", len(out))
	}
}
