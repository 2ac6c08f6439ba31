package mempool

import (
	"testing"
	"time"

	"leopard/internal/types"
)

func req(client, seq uint64) types.Request {
	return types.Request{ClientID: client, Seq: seq, Payload: []byte("p")}
}

func TestRequestPoolFIFO(t *testing.T) {
	p := NewRequestPoolLimits(Limits{})
	for i := uint64(0); i < 10; i++ {
		if !p.Admit(req(1, i), 0).OK() {
			t.Fatalf("request %d rejected", i)
		}
	}
	if p.Len() != 10 {
		t.Fatalf("Len = %d", p.Len())
	}
	out, _ := p.Extract(4)
	if len(out) != 4 {
		t.Fatalf("extracted %d", len(out))
	}
	for i, r := range out {
		if r.Seq != uint64(i) {
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

func datablock(gen types.ReplicaID, counter uint64) (*types.Datablock, types.Hash) {
	db := &types.Datablock{Ref: types.DatablockRef{Generator: gen, Counter: counter}}
	var h types.Hash
	h[0] = byte(gen)
	h[1] = byte(counter)
	return db, h
}

func TestDatablockPoolAddGetRemove(t *testing.T) {
	p := NewDatablockPool()
	db, h := datablock(1, 1)
	if !p.Add(h, db) {
		t.Fatal("add rejected")
	}
	if got, ok := p.Get(h); !ok || got != db {
		t.Fatal("get failed")
	}
	if !p.Has(h) {
		t.Fatal("Has = false")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	p.Remove(h)
	if p.Has(h) || p.Len() != 0 {
		t.Fatal("remove did not clear")
	}
	// After removal, the same (generator, counter) may be re-added: the
	// pool is storage, rate limiting happens before GC.
	if !p.Add(h, db) {
		t.Fatal("re-add after remove rejected")
	}
}

func TestDatablockPoolDuplicateCounter(t *testing.T) {
	p := NewDatablockPool()
	db1, h1 := datablock(1, 7)
	p.Add(h1, db1)
	// Same (generator, counter), different digest: the repetitive-counter
	// rule from Leopard Alg. 1 must reject it.
	db2 := &types.Datablock{Ref: db1.Ref, Requests: []types.Request{req(9, 9)}}
	h2 := types.Hash{0xff}
	if p.Add(h2, db2) {
		t.Fatal("duplicate (generator, counter) admitted")
	}
	// Different counter is fine.
	db3, h3 := datablock(1, 8)
	if !p.Add(h3, db3) {
		t.Fatal("distinct counter rejected")
	}
}

func TestDatablockPoolDigests(t *testing.T) {
	p := NewDatablockPool()
	want := map[types.Hash]bool{}
	for i := uint64(0); i < 5; i++ {
		db, h := datablock(2, i)
		p.Add(h, db)
		want[h] = true
	}
	got := p.Digests()
	if len(got) != 5 {
		t.Fatalf("Digests returned %d", len(got))
	}
	for _, h := range got {
		if !want[h] {
			t.Errorf("unexpected digest %v", h)
		}
	}
}
