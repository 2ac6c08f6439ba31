package transport_test

import (
	"testing"

	"leopard/internal/transport"
)

// TestEveryClassIsNamed: NumClasses sizes the per-class accounting arrays,
// so exactly the classes below it must have a case in Class.String — one
// without renders as "unknown" in every bandwidth breakdown, and a named
// class at or past NumClasses has no slot in those arrays.
func TestEveryClassIsNamed(t *testing.T) {
	for c := transport.Class(1); int(c) < transport.NumClasses; c++ {
		if c.String() == "unknown" {
			t.Errorf("class %d is below NumClasses and has no name", c)
		}
	}
	if c := transport.Class(transport.NumClasses); c.String() != "unknown" {
		t.Errorf("class %d (%s) is named but NumClasses stops short of it", c, c)
	}
}
