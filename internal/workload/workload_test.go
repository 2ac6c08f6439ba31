package workload

import (
	"testing"

	"leopard/internal/types"
)

func TestGeneratorUniqueIDs(t *testing.T) {
	g := NewGenerator(128, 8)
	seen := make(map[types.RequestID]bool)
	for i := 0; i < 1000; i++ {
		r := g.Next()
		if len(r.Payload) != 128 {
			t.Fatalf("payload size %d", len(r.Payload))
		}
		if seen[r.ID()] {
			t.Fatalf("duplicate request id %+v at %d", r.ID(), i)
		}
		seen[r.ID()] = true
	}
}

func TestGeneratorMinimumClients(t *testing.T) {
	g := NewGenerator(16, 0) // clamped to 1
	a, b := g.Next(), g.Next()
	if a.ID() == b.ID() {
		t.Fatal("sequential requests collide with one client")
	}
}
