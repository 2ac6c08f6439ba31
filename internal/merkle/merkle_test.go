package merkle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"leopard/internal/types"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d-payload", i))
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty tree must be rejected")
	}
}

func TestSingleLeaf(t *testing.T) {
	tree, err := New(leaves(1))
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree.Root(), proof, leaves(1)[0]); err != nil {
		t.Fatal(err)
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n)
		tree, err := New(ls)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if err := Verify(tree.Root(), proof, ls[i]); err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			// The compact form is the same proof: AppendPath gives the
			// steps' hashes, PathShape their number and sides.
			steps, right := PathShape(i, n)
			path := tree.AppendPath(nil, i)
			if steps != len(proof.Steps) || len(path) != steps*len(types.Hash{}) {
				t.Fatalf("n=%d i=%d: PathShape says %d steps, AppendPath gave %d bytes, Prove %d steps", n, i, steps, len(path), len(proof.Steps))
			}
			for k, step := range proof.Steps {
				if step.Right != (right&(1<<k) != 0) || !bytes.Equal(step.Hash[:], path[k*len(step.Hash):(k+1)*len(step.Hash)]) {
					t.Fatalf("n=%d i=%d: step %d differs between Prove and the compact form", n, i, k)
				}
			}
		}
	}
}

func TestProofRejectsTampering(t *testing.T) {
	ls := leaves(16)
	tree, err := New(ls)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(5)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong leaf data.
	if err := Verify(tree.Root(), proof, []byte("evil")); err == nil {
		t.Error("tampered leaf must fail verification")
	}
	// Wrong index (proof for 5 presented as 6).
	wrongIdx := proof
	wrongIdx.Index = 6
	if err := Verify(tree.Root(), wrongIdx, ls[6]); err == nil {
		t.Error("proof with swapped index must fail")
	}
	// Tampered sibling hash.
	tampered := Proof{Index: proof.Index, Steps: append([]ProofStep(nil), proof.Steps...)}
	tampered.Steps[0].Hash[0] ^= 1
	if err := Verify(tree.Root(), tampered, ls[5]); err == nil {
		t.Error("tampered proof step must fail")
	}
	// Wrong root.
	var otherRoot types.Hash
	if err := Verify(otherRoot, proof, ls[5]); err == nil {
		t.Error("wrong root must fail")
	}
}

func TestLeafIndexDomainSeparation(t *testing.T) {
	// Two trees whose leaves have identical bytes but different positions
	// must have different roots, or position-swap attacks would verify.
	a, err := New([][]byte{[]byte("x"), []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([][]byte{[]byte("y"), []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if a.Root() == b.Root() {
		t.Fatal("roots must differ when leaf order differs")
	}
}

func TestProveOutOfRange(t *testing.T) {
	tree, err := New(leaves(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Prove(-1); err == nil {
		t.Error("negative index must fail")
	}
	if _, err := tree.Prove(4); err == nil {
		t.Error("index == leaf count must fail")
	}
}

func TestProofSizeGrowsLogarithmically(t *testing.T) {
	small, _ := New(leaves(4))
	big, _ := New(leaves(256))
	ps, _ := small.Prove(0)
	pb, _ := big.Prove(0)
	if len(ps.Steps) != 2 {
		t.Errorf("4 leaves: %d steps, want 2", len(ps.Steps))
	}
	if len(pb.Steps) != 8 {
		t.Errorf("256 leaves: %d steps, want 8", len(pb.Steps))
	}
}

// TestPropertyRandomLeaves fuzzes tree construction and verification.
func TestPropertyRandomLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		ls := make([][]byte, n)
		r := rand.New(rand.NewSource(seed))
		for i := range ls {
			ls[i] = make([]byte, r.Intn(100))
			r.Read(ls[i])
		}
		tree, err := New(ls)
		if err != nil {
			return false
		}
		idx := rng.Intn(n)
		proof, err := tree.Prove(idx)
		if err != nil {
			return false
		}
		return Verify(tree.Root(), proof, ls[idx]) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
