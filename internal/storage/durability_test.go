package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"leopard/internal/codec"
	"leopard/internal/crypto"
	"leopard/internal/types"
)

// TestAppendVoteDurableBeforeReturn: a vote must be on disk when AppendVote
// returns, even under the default group-commit options — the caller
// broadcasts it immediately, so the durability boundary is the call, not
// the next batch flush. Staged block frames ride the same fsync. The batch
// window is set absurdly long so nothing reaches the file except through
// AppendVote itself.
func TestAppendVoteDurableBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rec := testRecord(1, 1, 1, 16)
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00000001.wal")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(segMagic)) {
		t.Fatalf("block append flushed eagerly: segment is %d bytes", fi.Size())
	}

	vote := VoteRecord{View: 1, Seq: 2, Round: 1, Digest: types.Hash{2}}
	if err := l.AppendVote(vote); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Both frames — the staged block and the vote that committed the batch
	// — must be complete on disk the moment AppendVote returns.
	off := len(segMagic)
	kind, _, n := decodeFrame(buf[off:])
	if kind != recBlock {
		t.Fatalf("first frame on disk is kind %d, want block", kind)
	}
	off += n
	kind, payload, _ := decodeFrame(buf[off:])
	if kind != recVote {
		t.Fatalf("second frame on disk is kind %d, want vote", kind)
	}
	var got VoteRecord
	if err := codec.Decode(payload, got.wire); err != nil {
		t.Fatal(err)
	}
	if got != vote {
		t.Fatalf("vote on disk %+v, want %+v", got, vote)
	}
	if l.Stats().Syncs == 0 {
		t.Fatal("AppendVote returned without an fsync batch")
	}
}

// testNote builds a deterministic notarization record at seq.
func testNote(seq types.SeqNum, view types.View) NoteRecord {
	return NoteRecord{
		Block:     &types.BFTblock{View: view, Seq: seq, Content: []types.Hash{{byte(seq)}}},
		Notarized: crypto.Proof{Sig: []byte(fmt.Sprintf("sigma1-%d", seq))},
	}
}

func encodeNote(nt NoteRecord) []byte {
	w := &codec.Writer{}
	nt.wire(codec.Encoder(w))
	return w.Buf
}

func notesEqual(a, b NoteRecord) bool {
	return string(encodeNote(a)) == string(encodeNote(b))
}

// TestWALNoteRecordLifecycle covers the notarization records' durability
// arc, mirroring the vote-record lifecycle: interleaved with block and vote
// frames, recovered in order on reopen, pruned by checkpoint truncation,
// filtered against the anchor at scan, and re-staged across a Reset.
func TestWALNoteRecordLifecycle(t *testing.T) {
	dir := t.TempDir()
	l := tortureLog(t, dir, OsFS{})
	notes := []NoteRecord{
		testNote(3, 2),
		testNote(7, 2),
		testNote(9, 3),
	}
	for i, nt := range notes {
		if err := l.AppendNote(nt); err != nil {
			t.Fatal(err)
		}
		// Interleave the round-2 vote that rides with each note, and a
		// block frame.
		v := VoteRecord{View: nt.Block.View, Seq: nt.Block.Seq, Round: 2, Digest: types.Hash{byte(nt.Block.Seq)}}
		if err := l.AppendVote(v); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(testRecord(types.SeqNum(i+1), 1, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := tortureLog(t, dir, OsFS{})
	got := re.Notes()
	if len(got) != len(notes) {
		t.Fatalf("recovered %d notes, want %d", len(got), len(notes))
	}
	for i := range notes {
		if !notesEqual(got[i], notes[i]) {
			t.Fatalf("note %d: got %+v want %+v", i, got[i], notes[i])
		}
	}

	// Truncation below an advanced watermark prunes covered notes.
	if err := re.SaveCheckpoint(Checkpoint{Seq: 3, Proof: crypto.Proof{Sig: []byte("p")}}); err != nil {
		t.Fatal(err)
	}
	if err := re.TruncateBelow(3); err != nil {
		t.Fatal(err)
	}
	for _, nt := range re.Notes() {
		if nt.Block.Seq <= 3 {
			t.Fatalf("note at %d survived truncation", nt.Block.Seq)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh scan filters notes at or below the saved anchor even though
	// their frames are still in the retained segments.
	re2 := tortureLog(t, dir, OsFS{})
	for _, nt := range re2.Notes() {
		if nt.Block.Seq <= 3 {
			t.Fatalf("scan admitted note at %d below the anchor", nt.Block.Seq)
		}
	}

	// Reset re-anchors the log; notes above the anchor are re-staged into
	// the fresh segment and survive the next restart.
	if err := re2.Reset(7); err != nil {
		t.Fatal(err)
	}
	if g := re2.Notes(); len(g) != 1 || !notesEqual(g[0], notes[2]) {
		t.Fatalf("notes after reset: %+v", g)
	}
	if err := re2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}
	re3 := tortureLog(t, dir, OsFS{})
	defer re3.Close()
	if g := re3.Notes(); len(g) != 1 || !notesEqual(g[0], notes[2]) {
		t.Fatalf("re-staged note lost across restart: %+v", g)
	}
}

// TestStoreAccessorsCopy: Votes and Notes hand out copies, on disk and on
// the simulations' MemFS — pruning reuses the internal backing arrays in
// place, so a caller appending to (or mutating) the result must not corrupt
// the log.
func TestStoreAccessorsCopy(t *testing.T) {
	stores := map[string]Store{
		"wal":   tortureLog(t, t.TempDir(), OsFS{}),
		"memfs": tortureLog(t, "wal", NewMemFS()),
	}
	for name, st := range stores {
		defer st.Close()
		t.Run(name, func(t *testing.T) {
			want := VoteRecord{View: 1, Seq: 5, Round: 1, Digest: types.Hash{5}}
			if err := st.AppendVote(want); err != nil {
				t.Fatal(err)
			}
			if err := st.AppendNote(testNote(5, 1)); err != nil {
				t.Fatal(err)
			}
			votes := st.Votes()
			votes[0] = VoteRecord{View: 99, Seq: 99}
			if got := st.Votes()[0]; got != want {
				t.Fatalf("mutating the Votes result corrupted the store: %+v", got)
			}
			notes := st.Notes()
			notes[0] = NoteRecord{}
			if got := st.Notes()[0]; !notesEqual(got, testNote(5, 1)) {
				t.Fatalf("mutating the Notes result corrupted the store: %+v", got)
			}
		})
	}
}

// TestWALResetRetainedRecordsDurable: the vote-ahead and notarization
// records a Reset retains are on disk when Reset returns. The group-commit
// window is an hour, so only Reset itself can have written them, and the
// directory is reopened without Close, as after a crash right behind an
// anchor jump.
func TestWALResetRetainedRecordsDurable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		append func(*Log) error
		count  func(*Log) int
	}{
		{"votes", func(l *Log) error {
			return l.AppendVote(VoteRecord{View: 1, Seq: 10, Round: 1, Digest: types.Hash{10}})
		}, func(l *Log) int { return len(l.Votes()) }},
		{"notes", func(l *Log) error {
			return l.AppendNote(testNote(10, 1))
		}, func(l *Log) int { return len(l.Notes()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{FsyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := tc.append(l); err != nil {
				t.Fatal(err)
			}
			if err := l.Reset(5); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, Options{FsyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := tc.count(re); got != 1 {
				t.Fatalf("reopened after Reset: %d %s, want 1", got, tc.name)
			}
		})
	}
}

// TestTruncateKeepsVotesAndNotes: a checkpoint truncation keeps every vote
// and note above its bound across a reopen, so a restarted replica re-locks
// every (view, seq) it signed above the checkpoint. A closed segment goes
// only when all its frames, of any kind, are at or below the bound; a
// segment whose last block is below the checkpoint can still hold the
// votes cast ahead of it.
func TestTruncateKeepsVotesAndNotes(t *testing.T) {
	for _, tc := range []struct {
		name string
		// fill appends to a 2 KiB-segment log until the first segment is
		// closed and returns the checkpoint seq it truncates below.
		fill func(t *testing.T, l *Log) types.SeqNum
	}{
		{"segment rolls on a vote", func(t *testing.T, l *Log) types.SeqNum {
			for sn := types.SeqNum(1); sn <= 5; sn++ {
				must(t, l.Append(testRecord(sn, 1, 1, 16)))
			}
			must(t, l.AppendNote(testNote(6, 1)))
			for seq := types.SeqNum(6); l.Stats().Segments < 2; seq++ {
				must(t, l.AppendVote(VoteRecord{View: 1, Seq: seq, Round: 1, Digest: types.Hash{byte(seq)}}))
			}
			must(t, l.AppendNote(testNote(7, 1)))
			must(t, l.AppendVote(VoteRecord{View: 1, Seq: 7, Round: 2, Digest: types.Hash{7, 7}}))
			for sn := types.SeqNum(6); l.Stats().Segments < 3; sn++ {
				must(t, l.Append(testRecord(sn, 1, 1, 16)))
			}
			return 5
		}},
		{"segment rolls on a block", func(t *testing.T, l *Log) types.SeqNum {
			// Each block rides behind a note and a round-2 vote three slots
			// ahead of it, and the blocks are large enough that one of them
			// closes the segment: its last block is k, its highest vote k+3.
			sn := types.SeqNum(1)
			for ; ; sn++ {
				must(t, l.AppendNote(testNote(sn+3, 1)))
				must(t, l.AppendVote(VoteRecord{View: 1, Seq: sn + 3, Round: 2, Digest: types.Hash{byte(sn + 3)}}))
				if l.Stats().Segments > 1 {
					t.Fatal("a note or vote frame closed the segment")
				}
				must(t, l.Append(testRecord(sn, 1, 2, 120)))
				if l.Stats().Segments > 1 {
					break
				}
			}
			for next := sn + 1; next <= sn+2; next++ {
				must(t, l.Append(testRecord(next, 1, 2, 120)))
			}
			return sn + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := tortureLog(t, dir, OsFS{})
			cp := tc.fill(t, l)
			must(t, l.SaveCheckpoint(Checkpoint{Seq: cp, Proof: crypto.Proof{Sig: []byte("cp")}}))
			must(t, l.TruncateBelow(cp))
			votes, notes := l.Votes(), l.Notes()
			if len(votes) == 0 || len(notes) == 0 {
				t.Fatalf("nothing above the checkpoint to keep: %d votes, %d notes", len(votes), len(notes))
			}
			must(t, l.Close())

			re := tortureLog(t, dir, OsFS{})
			defer re.Close()
			if got := re.Votes(); !slices.Equal(got, votes) {
				t.Errorf("%d votes before the reopen, %d after: %+v", len(votes), len(got), got)
			}
			got := re.Notes()
			if len(got) != len(notes) {
				t.Fatalf("%d notes before the reopen, %d after", len(notes), len(got))
			}
			for i := range notes {
				if !notesEqual(got[i], notes[i]) {
					t.Errorf("note %d: got seq %d, want %d", i, got[i].Block.Seq, notes[i].Block.Seq)
				}
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
