package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"leopard/internal/codec"
	"leopard/internal/crypto"
	"leopard/internal/types"
)

// testRecord builds a deterministic record at seq with payload-bearing
// datablocks (reqPerDB requests of payloadLen bytes each).
func testRecord(seq types.SeqNum, links, reqPerDB, payloadLen int) *BlockRecord {
	block := &types.BFTblock{View: 1, Seq: seq}
	rec := &BlockRecord{
		Seq:       seq,
		Block:     block,
		Notarized: crypto.Proof{Sig: []byte(fmt.Sprintf("sigma1-%d", seq))},
		Confirmed: crypto.Proof{Sig: []byte(fmt.Sprintf("sigma2-%d", seq))},
	}
	for i := 0; i < links; i++ {
		db := &types.Datablock{Ref: types.DatablockRef{Generator: types.ReplicaID(i % 4), Counter: uint64(seq)*100 + uint64(i)}}
		for r := 0; r < reqPerDB; r++ {
			payload := bytes.Repeat([]byte{byte(seq), byte(i), byte(r)}, payloadLen/3+1)[:payloadLen]
			db.Requests = append(db.Requests, types.Request{ClientID: uint64(i), Seq: uint64(seq)*1000 + uint64(r), Payload: payload})
		}
		rec.Datablocks = append(rec.Datablocks, db)
		rec.Block.Content = append(rec.Block.Content, crypto.HashDatablock(db))
	}
	return rec
}

func encodeRecord(rec *BlockRecord) []byte {
	w := &codec.Writer{}
	rec.Wire(codec.Encoder(w))
	return w.Buf
}

func recordsEqual(a, b *BlockRecord) bool {
	return bytes.Equal(encodeRecord(a), encodeRecord(b))
}

func TestBlockRecordRoundTrip(t *testing.T) {
	for _, links := range []int{0, 1, 3} {
		rec := testRecord(7, links, 2, 16)
		buf := encodeRecord(rec)
		r := &codec.Reader{Buf: buf}
		got := new(BlockRecord)
		got.Wire(codec.Decoder(r))
		if err := r.Err(); err != nil {
			t.Fatalf("links=%d: %v", links, err)
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("links=%d: trailing: %v", links, err)
		}
		if !recordsEqual(rec, got) {
			t.Fatalf("links=%d: round trip mismatch", links)
		}
		// Truncations must error, never panic.
		for cut := 0; cut < len(buf); cut++ {
			r := &codec.Reader{Buf: buf[:cut]}
			rec := new(BlockRecord)
			if rec.Wire(codec.Decoder(r)); r.Finish() == nil {
				// A shorter valid record is impossible: the encoding is
				// length-prefixed throughout.
				t.Fatalf("links=%d: truncation at %d decoded: %+v", links, cut, rec)
			}
		}
		if rec.WireSize() != len(buf) {
			t.Fatalf("links=%d: WireSize %d != encoded %d", links, rec.WireSize(), len(buf))
		}
	}
}

// TestWALAppendReopenReplay appends blocks, votes and notes across several
// segments, reopens the directory and checks what Open recovers, on each FS
// a Log runs on: MemFS, the simulations' filesystem, must recover exactly
// what OsFS does — the same records, votes, notes, anchor and truncation.
func TestWALAppendReopenReplay(t *testing.T) {
	recovered := make(map[string]string)
	for _, tc := range []struct {
		name string
		fs   FS
	}{{"os", OsFS{}}, {"mem", NewMemFS()}} {
		t.Run(tc.name, func(t *testing.T) { recovered[tc.name] = appendReopenReplay(t, tc.fs) })
	}
	if recovered["os"] != recovered["mem"] {
		t.Fatalf("MemFS recovered differently from OsFS:\nos:  %s\nmem: %s", recovered["os"], recovered["mem"])
	}
}

// appendReopenReplay runs TestWALAppendReopenReplay on one FS and returns
// a summary of the recovered state.
func appendReopenReplay(t *testing.T, fs FS) string {
	dir := t.TempDir()
	// Small segments force several rolls.
	opts := Options{SegmentBytes: 4096, FS: fs}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var appended []*BlockRecord
	var votes []VoteRecord
	var notes []NoteRecord
	for sn := types.SeqNum(1); sn <= 20; sn++ {
		rec := testRecord(sn, 2, 4, 64)
		appended = append(appended, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if sn%5 == 0 {
			nt := testNote(sn+1, 1)
			v := VoteRecord{View: 1, Seq: sn + 1, Round: 2, Digest: types.Hash{byte(sn)}}
			if err := l.AppendNote(nt); err != nil {
				t.Fatal(err)
			}
			if err := l.AppendVote(v); err != nil {
				t.Fatal(err)
			}
			if sn+1 > 8 {
				notes, votes = append(notes, nt), append(votes, v)
			}
		}
	}
	cp := Checkpoint{Seq: 8, StateHash: types.Hash{1, 2}, Proof: crypto.Proof{Sig: []byte("cp-proof")}}
	if err := l.SaveCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveMeta(Meta{View: 3, CounterReserve: 2048}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.Checkpoint()
	if !ok || got.Seq != 8 || !bytes.Equal(got.Proof.Sig, cp.Proof.Sig) {
		t.Fatalf("checkpoint not recovered: %+v ok=%v", got, ok)
	}
	if m := re.Meta(); m.View != 3 || m.CounterReserve != 2048 {
		t.Fatalf("meta not recovered: %+v", m)
	}
	first, last := re.Bounds()
	if first != 1 || last != 20 {
		t.Fatalf("bounds (%d, %d), want (1, 20)", first, last)
	}
	for _, want := range appended {
		got, ok := re.Get(want.Seq)
		if !ok || !recordsEqual(want, got) {
			t.Fatalf("record %d not recovered intact", want.Seq)
		}
	}
	// Votes and notes at or below the anchor are filtered at scan.
	if g := re.Votes(); fmt.Sprint(g) != fmt.Sprint(votes) {
		t.Fatalf("votes recovered %+v, want %+v", g, votes)
	}
	gotNotes := re.Notes()
	if len(gotNotes) != len(notes) {
		t.Fatalf("recovered %d notes, want %d", len(gotNotes), len(notes))
	}
	for i := range notes {
		if !notesEqual(gotNotes[i], notes[i]) {
			t.Fatalf("note %d not recovered intact", i)
		}
	}
	st := re.Stats()
	if st.Loaded != 20 || st.TailTruncated {
		t.Fatalf("stats after clean reopen: %+v", st)
	}
	if st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}

	// Truncation below the checkpoint drops whole old segments but keeps
	// the contiguous tail.
	if err := re.TruncateBelow(8); err != nil {
		t.Fatal(err)
	}
	first, last = re.Bounds()
	if last != 20 {
		t.Fatalf("truncate lost the tail: last=%d", last)
	}
	for sn := types.SeqNum(9); sn <= 20; sn++ {
		if _, ok := re.Get(sn); !ok {
			t.Fatalf("record %d lost by truncation", sn)
		}
	}
	after := re.Stats()
	if after.Segments >= st.Segments {
		t.Fatalf("truncation removed no segments: %d -> %d", st.Segments, after.Segments)
	}
	return fmt.Sprintf("cp=%d votes=%v notes=%d stats=%+v truncated to [%d, %d] stats=%+v",
		got.Seq, re.Votes(), len(gotNotes), st, first, last, after)
}

// corrupt applies fn to the newest segment file.
func corruptNewestSegment(t *testing.T, dir string, fn func([]byte) []byte) {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	path := entries[len(entries)-1]
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(buf), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALTortureRecovery is the damage table: truncated tail record,
// corrupt CRC, and a torn mid-record write must all recover to the last
// complete record.
func TestWALTortureRecovery(t *testing.T) {
	const records = 6
	cases := []struct {
		name string
		// damage returns the mutated segment bytes; lastGood is the highest
		// seq that must survive.
		damage   func(buf []byte) []byte
		lastGood types.SeqNum
	}{
		{
			name:     "truncated tail record",
			damage:   func(buf []byte) []byte { return buf[:len(buf)-7] },
			lastGood: records - 1,
		},
		{
			name: "corrupt crc in last record",
			damage: func(buf []byte) []byte {
				buf[len(buf)-1] ^= 0xff
				return buf
			},
			lastGood: records - 1,
		},
		{
			name: "mid-record crash",
			damage: func(buf []byte) []byte {
				// Cut inside the middle record: a write that never finished.
				return buf[:len(buf)/2]
			},
			lastGood: 0, // computed per-run below: whatever prefix survived
		},
		{
			name: "corrupt first record",
			damage: func(buf []byte) []byte {
				buf[12] ^= 0xff // inside record 1's payload
				return buf
			},
			lastGood: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{}) // one segment: large threshold
			if err != nil {
				t.Fatal(err)
			}
			var appended []*BlockRecord
			for sn := types.SeqNum(1); sn <= records; sn++ {
				rec := testRecord(sn, 1, 2, 32)
				appended = append(appended, rec)
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			corruptNewestSegment(t, dir, tc.damage)

			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery must not fail: %v", err)
			}
			defer re.Close()
			st := re.Stats()
			if !st.TailTruncated {
				t.Fatal("damage not reported as tail truncation")
			}
			first, last := re.Bounds()
			if tc.lastGood > 0 && last != tc.lastGood {
				t.Fatalf("recovered to %d, want %d", last, tc.lastGood)
			}
			// Every surviving record must equal what was appended, and the
			// run must be the contiguous prefix.
			if first != 0 && first != 1 {
				t.Fatalf("recovered run starts at %d", first)
			}
			for sn := first; sn != 0 && sn <= last; sn++ {
				got, ok := re.Get(sn)
				if !ok || !recordsEqual(appended[sn-1], got) {
					t.Fatalf("record %d damaged by recovery", sn)
				}
			}
			// The log must accept appends continuing from the survivor.
			next := last + 1
			if err := re.Append(testRecord(next, 1, 2, 32)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
		})
	}
}

// TestFlushStagedNeverAliasesSpare is the regression test for a buffer
// recycling bug: a flush that found nothing staged (a segment roll racing
// the background syncer), or one whose chunk was too large to recycle,
// skipped the spare exchange after pending had already been repointed at
// spare's array — leaving the two aliased, so the next flush handed
// f.Write a buffer that concurrent Appends were growing, silently
// corrupting frames on disk.
func TestFlushStagedNeverAliasesSpare(t *testing.T) {
	// A huge FsyncInterval keeps the background syncer out of the test.
	l, err := Open(t.TempDir(), Options{FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	aliased := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		if cap(l.pending) == 0 || cap(l.spare) == 0 {
			return false
		}
		return &l.pending[:1][0] == &l.spare[:1][0]
	}

	// Populate spare via one normal append+flush cycle.
	if err := l.Append(testRecord(1, 1, 1, 32)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Empty flush: nothing staged, so the recycle used to be skipped.
	l.flushMu.Lock()
	err = l.flushStaged()
	l.flushMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if aliased() {
		t.Fatal("empty flush left spare aliasing pending")
	}

	// Oversized chunk (> 8 MiB): not recycled, and must not leave the old
	// spare array shared with pending either.
	if err := l.Append(testRecord(2, 1, 1, 9<<20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if aliased() {
		t.Fatal("oversized flush left spare aliasing pending")
	}

	// The log must still be intact end to end.
	if err := l.Append(testRecord(3, 1, 1, 32)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	first, last := l.Bounds()
	if first != 1 || last != 3 {
		t.Fatalf("bounds (%d, %d), want (1, 3)", first, last)
	}
}

func TestWALRejectsNonContiguousAppend(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testRecord(1, 1, 1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(3, 1, 1, 8)); err == nil {
		t.Fatal("gap append accepted")
	}
}

// TestWALOwnsAppendedRecords: Append keeps no memory of the caller's
// record. A replica's datablocks borrow from the frames they arrived in,
// and the frame is recycled once the datablock is released; Get must still
// serve the bytes that were appended. Each Get decodes its own record, so
// what one caller does to the record it got reaches no other.
func TestWALOwnsAppendedRecords(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := testRecord(1, 2, 3, 64)
	want := encodeRecord(rec)
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	// The caller recycles everything the record pointed at.
	for _, db := range rec.Datablocks {
		for i := range db.Requests {
			for j := range db.Requests[i].Payload {
				db.Requests[i].Payload[j] = 0xDB
			}
			db.Requests[i].ClientID = 99
		}
	}
	rec.Notarized.Sig[0] ^= 0xFF
	rec.Block.Content[0] = types.Hash{}
	got, ok := l.Get(1)
	if !ok {
		t.Fatal("record 1 not retained")
	}
	if !bytes.Equal(encodeRecord(got), want) {
		t.Fatal("Get serves the caller's overwritten bytes, not the appended ones")
	}
	got.Block.Content[0] = types.Hash{}
	got.Datablocks[0] = nil
	if again, _ := l.Get(1); !bytes.Equal(encodeRecord(again), want) {
		t.Fatal("a change to one Get's record reached the next Get")
	}
}

// TestWALTruncateKeepsResetAnchor: a truncation that leaves no record
// keeps Reset's anchor as the upper bound, and so does a reopen of the log
// with no record, so Bounds and the contiguity check still agree with the
// checkpoint the replica jumped to.
func TestWALTruncateKeepsResetAnchor(t *testing.T) {
	fs := NewMemFS()
	l, err := Open("log", Options{FS: fs, SyncEachAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	// The caller saves the checkpoint before it resets the log to it.
	if err := l.SaveCheckpoint(Checkpoint{Seq: 10, Proof: crypto.Proof{Sig: []byte("p")}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(10); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBelow(10); err != nil {
		t.Fatal(err)
	}
	wantAnchor := func(l *Log, when string) {
		t.Helper()
		if first, last := l.Bounds(); first != 0 || last != 10 {
			t.Fatalf("bounds (%d, %d) %s, want (0, 10)", first, last, when)
		}
		if err := l.Append(testRecord(3, 1, 1, 8)); err == nil {
			t.Fatalf("append at 3 accepted below the anchor 10 %s", when)
		}
	}
	wantAnchor(l, "after Reset(10) and TruncateBelow(10)")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open("log", Options{FS: fs, SyncEachAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wantAnchor(l, "after a reopen with no record")
	if err := l.Append(testRecord(11, 1, 1, 8)); err != nil {
		t.Fatalf("append at 11 after the anchor 10: %v", err)
	}
}

// TestWALCorruptCheckpointFileFails asserts a damaged checkpoint file is a
// loud Open error, not a silent empty store: the WAL tail was truncated
// against that anchor, so pretending it never existed would un-anchor the
// retained records.
func TestWALCorruptCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SaveCheckpoint(Checkpoint{Seq: 5, Proof: crypto.Proof{Sig: []byte("p")}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt checkpoint file accepted")
	}
}

// FuzzWALReplay corrupts a valid log at an arbitrary offset with arbitrary
// junk and asserts replay never panics and never yields a record that was
// not appended: recovery is a contiguous prefix of the original records,
// byte-identical up to the first damaged byte.
func FuzzWALReplay(f *testing.F) {
	const records = 5
	baseDir := f.TempDir()
	l, err := Open(baseDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var appended []*BlockRecord
	var appendedVotes []VoteRecord
	var appendedNotes []NoteRecord
	// recordEnd[i] is the file offset where block record i+1's frame ends
	// (captured before the interleaved vote/note frames that follow it).
	var recordEnd []int
	for sn := types.SeqNum(1); sn <= records; sn++ {
		rec := testRecord(sn, 1, 2, 24)
		appended = append(appended, rec)
		if err := l.Append(rec); err != nil {
			f.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			f.Fatal(err)
		}
		st := l.Stats()
		recordEnd = append(recordEnd, int(st.LiveBytes))
		// Interleave the other frame kinds so corruption traverses
		// VoteRecord and NoteRecord frames too, not just block records.
		v := VoteRecord{View: 1, Seq: sn, Round: 1, Digest: types.Hash{byte(sn)}}
		appendedVotes = append(appendedVotes, v)
		if err := l.AppendVote(v); err != nil {
			f.Fatal(err)
		}
		if sn%2 == 1 {
			nt := testNote(sn, 1)
			appendedNotes = append(appendedNotes, nt)
			if err := l.AppendNote(nt); err != nil {
				f.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segPath, err := filepath.Glob(filepath.Join(baseDir, "seg-*.wal"))
	if err != nil || len(segPath) != 1 {
		f.Fatalf("expected one segment: %v %v", segPath, err)
	}
	base, err := os.ReadFile(segPath[0])
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint16(0), []byte{})
	f.Add(uint16(len(base)/2), []byte{0xde, 0xad})
	f.Add(uint16(len(base)), []byte{0x00})
	f.Fuzz(func(t *testing.T, cutRaw uint16, junk []byte) {
		cut := int(cutRaw) % (len(base) + 1)
		mutated := append(append([]byte{}, base[:cut]...), junk...)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open must recover, not fail: %v", err)
		}
		defer re.Close()

		// Records whose frames sit entirely below the cut are untouched and
		// must be recovered verbatim.
		intact := 0
		for i, end := range recordEnd {
			if end <= cut {
				intact = i + 1
			}
		}
		first, last := re.Bounds()
		if intact > 0 && (first != 1 || last < types.SeqNum(intact)) {
			t.Fatalf("intact prefix of %d lost: bounds (%d, %d)", intact, first, last)
		}
		for sn := types.SeqNum(1); sn <= types.SeqNum(intact); sn++ {
			got, ok := re.Get(sn)
			if !ok || !recordsEqual(appended[sn-1], got) {
				t.Fatalf("intact record %d not recovered verbatim", sn)
			}
		}
		// Whatever was recovered beyond the intact prefix must still be a
		// contiguous run of structurally valid records starting at 1 —
		// damage may shorten the log, never fabricate or reorder it.
		if first != 0 && first != 1 {
			t.Fatalf("recovered run starts at %d", first)
		}
		for sn := first; sn != 0 && sn <= last; sn++ {
			rec, ok := re.Get(sn)
			if !ok {
				t.Fatalf("hole at %d inside recovered bounds", sn)
			}
			if rec.Seq != sn {
				t.Fatalf("record at %d claims seq %d", sn, rec.Seq)
			}
			// Every recovered record must re-encode cleanly (no partially
			// decoded state escapes the scan).
			r := &codec.Reader{Buf: encodeRecord(rec)}
			new(BlockRecord).Wire(codec.Decoder(r))
			if err := r.Finish(); err != nil {
				t.Fatalf("recovered record %d does not round-trip: %v", sn, err)
			}
		}
		// Damage may drop vote/note frames, never fabricate them: every
		// recovered record must be one that was appended.
		for _, v := range re.Votes() {
			ok := false
			for _, want := range appendedVotes {
				if v == want {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("fabricated vote record %+v", v)
			}
		}
		for _, nt := range re.Notes() {
			ok := false
			for _, want := range appendedNotes {
				if notesEqual(nt, want) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("fabricated note record seq %d", nt.Block.Seq)
			}
		}
	})
}
