package storage

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"leopard/internal/crypto"
	"leopard/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wal.golden from the current encoder")

// TestWALGolden pins the on-disk format byte for byte: a segment holding one
// frame of each record kind (block, note, vote) and the checkpoint and meta
// files must equal the recorded bytes, so a replica can always reopen the
// log an older binary wrote.
func TestWALGolden(t *testing.T) {
	const path = "testdata/wal.golden"
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		l.Append(testRecord(1, 2, 2, 16)),
		l.AppendNote(testNote(2, 1)),
		l.AppendVote(VoteRecord{View: 1, Seq: 2, Round: 2, Digest: types.Hash{7}}),
		l.SaveCheckpoint(Checkpoint{Seq: 50, StateHash: types.Hash{9}, Proof: crypto.Proof{Sig: []byte("cp-proof")}}),
		l.SaveMeta(Meta{View: 3, CounterReserve: 2048}),
		l.Close(),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	var got string
	for _, name := range []string{"seg-00000001.wal", "checkpoint", "meta"} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got += fmt.Sprintf("%s %x\n", name, buf)
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("on-disk bytes moved:\n got %s\nwant %s", got, want)
	}
}
