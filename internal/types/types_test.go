package types

import (
	"testing"
	"testing/quick"
)

func TestNewQuorumParams(t *testing.T) {
	tests := []struct {
		n       int
		wantF   int
		wantErr bool
	}{
		{n: 0, wantErr: true},
		{n: 3, wantErr: true},
		{n: 4, wantF: 1},
		{n: 5, wantF: 1},
		{n: 6, wantF: 1},
		{n: 7, wantF: 2},
		{n: 10, wantF: 3},
		{n: 100, wantF: 33},
		{n: 300, wantF: 99},
		{n: 301, wantF: 100},
		{n: 600, wantF: 199},
	}
	for _, tt := range tests {
		q, err := NewQuorumParams(tt.n)
		if tt.wantErr {
			if err == nil {
				t.Errorf("n=%d: want error, got %+v", tt.n, q)
			}
			continue
		}
		if err != nil {
			t.Errorf("n=%d: unexpected error %v", tt.n, err)
			continue
		}
		if q.F != tt.wantF {
			t.Errorf("n=%d: f=%d, want %d", tt.n, q.F, tt.wantF)
		}
		if !q.Valid() {
			t.Errorf("n=%d: params invalid", tt.n)
		}
	}
}

// TestQuorumIntersection checks the fundamental BFT property: two quorums
// of size 2f+1 among 3f+1 replicas intersect in at least f+1 replicas,
// guaranteeing an honest replica in the intersection.
func TestQuorumIntersection(t *testing.T) {
	check := func(fRaw uint16) bool {
		f := int(fRaw)%500 + 1
		n := 3*f + 1 // the paper's exact resilience setting
		q, err := NewQuorumParams(n)
		if err != nil || q.F != f {
			return false
		}
		intersection := 2*q.Quorum() - q.N
		return intersection >= q.F+1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestQuorumThresholds(t *testing.T) {
	q, err := NewQuorumParams(301)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.Quorum(), 201; got != want {
		t.Errorf("Quorum() = %d, want %d", got, want)
	}
	if got, want := q.Small(), 101; got != want {
		t.Errorf("Small() = %d, want %d", got, want)
	}
}

func TestLeaderOfRoundRobin(t *testing.T) {
	const n = 7
	seen := make(map[ReplicaID]int)
	for v := View(1); v <= n; v++ {
		seen[LeaderOf(v, n)]++
	}
	if len(seen) != n {
		t.Fatalf("expected %d distinct leaders over %d views, got %d", n, n, len(seen))
	}
	for id, count := range seen {
		if count != 1 {
			t.Errorf("leader %d elected %d times in one rotation", id, count)
		}
	}
	if LeaderOf(1, n) == LeaderOf(2, n) {
		t.Error("consecutive views must rotate the leader")
	}
}

func TestRequestIDAndSize(t *testing.T) {
	r := Request{ClientID: 7, Seq: 9, Payload: make([]byte, 128)}
	if r.ID() != (RequestID{Client: 7, Seq: 9}) {
		t.Errorf("unexpected id %+v", r.ID())
	}
	if r.Size() != 20+128 {
		t.Errorf("Size() = %d, want %d", r.Size(), 20+128)
	}
}

func TestDatablockSizes(t *testing.T) {
	db := &Datablock{Ref: DatablockRef{Generator: 3, Counter: 1}}
	for i := 0; i < 10; i++ {
		db.Requests = append(db.Requests, Request{ClientID: 1, Seq: uint64(i), Payload: make([]byte, 100)})
	}
	if got, want := db.PayloadBytes(), 1000; got != want {
		t.Errorf("PayloadBytes() = %d, want %d", got, want)
	}
}

func TestBFTblockDigestInputDistinguishes(t *testing.T) {
	h1 := Hash{1}
	h2 := Hash{2}
	blocks := []*BFTblock{
		{View: 1, Seq: 1, Content: []Hash{h1}},
		{View: 1, Seq: 2, Content: []Hash{h1}},
		{View: 2, Seq: 1, Content: []Hash{h1}},
		{View: 1, Seq: 1, Content: []Hash{h2}},
		{View: 1, Seq: 1, Content: []Hash{h1, h2}},
	}
	seen := make(map[string]int)
	for i, b := range blocks {
		key := string(b.AppendDigestInput(nil))
		if prev, dup := seen[key]; dup {
			t.Errorf("blocks %d and %d encode identically", prev, i)
		}
		seen[key] = i
	}
}

func TestBlockStateString(t *testing.T) {
	states := map[BlockState]string{
		StatePending:   "pending",
		StateNotarized: "notarized",
		StateConfirmed: "confirmed",
		StateExecuted:  "executed",
		BlockState(42): "BlockState(42)",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestHashHelpers(t *testing.T) {
	var zero Hash
	if !zero.IsZero() {
		t.Error("zero hash must report IsZero")
	}
	h := Hash{0xab, 0xcd}
	if h.IsZero() {
		t.Error("non-zero hash reports IsZero")
	}
	if h.String() == "" {
		t.Error("String() must render something")
	}
}
