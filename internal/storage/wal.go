package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"leopard/internal/codec"
	"leopard/internal/types"
)

// On-disk layout under the data directory:
//
//	seg-00000001.wal  segment: 8-byte magic, then framed records
//	checkpoint        latest stable checkpoint (atomically replaced)
//	meta              replica-local metadata (atomically replaced)
//
// A segment frame is u32 length | u32 CRC-32 (IEEE, over the payload) |
// payload, where payload is a one-byte record kind followed by the record
// encoding. The single-file checkpoint and meta records use the same frame
// after their own magic.
const (
	segMagic  = "LPWAL001"
	ckptMagic = "LPCKPT01"
	metaMagic = "LPMETA01"

	recBlock byte = 1
	recVote  byte = 2
	recNote  byte = 3

	// maxFrameLen bounds a single record frame. A record carries up to τ
	// full datablocks, so the bound is generous; anything larger is
	// corruption.
	maxFrameLen = 1 << 30

	// stageBudget bounds the staged-but-unwritten bytes. An Append that
	// would exceed it flushes inline instead (backpressure), so a disk that
	// cannot keep up degrades the log to disk speed rather than ballooning
	// memory.
	stageBudget = 32 << 20
)

// Options tunes a file-backed Log. The zero value selects the defaults.
type Options struct {
	// SegmentBytes is the roll threshold: a segment exceeding it is closed
	// and a new one started. Default 8 MiB.
	SegmentBytes int64
	// FsyncInterval is the group-commit window: staged appends are written
	// and fsynced in batches at most this far apart. Default 2ms.
	FsyncInterval time.Duration
	// SyncEachAppend makes every Append write, flush and fsync before
	// returning (no batching), and Open starts no syncer goroutine:
	// simulations set it to stay deterministic; benchmarks use it as the
	// serialized baseline; real deployments should not.
	SyncEachAppend bool
	// FS is the filesystem the log runs on. Nil selects OsFS; simulations
	// pass a MemFS, tests a FaultFS (torn writes, failed fsyncs, bit flips).
	FS FS
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 2 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = OsFS{}
	}
}

// frame is one record frame exactly as it was written: its kind, the seq
// it is about (a block's, a vote's, or a note's block's) and its bytes,
// header included. The bytes are never modified, so Get, Votes and Notes
// decode them on each call with fields borrowed from them.
type frame struct {
	kind byte
	seq  types.SeqNum
	buf  []byte
}

type segInfo struct {
	index  int
	path   string
	frames []frame // every frame in the segment, in file order
	bytes  int64   // committed + staged bytes destined for this segment
}

// Log is the file-backed Store: a segmented WAL with group-committed
// appends. Append stages the framed record in memory and returns — no
// write or fsync syscalls on the caller's path — and the background syncer
// writes and fsyncs staged batches at most once per FsyncInterval, so the
// execute path pays encode + memcpy and nothing else (BenchmarkWALAppend).
// The log also holds the bytes of every frame its live segments hold (the
// retained window is bounded by the checkpoint interval), so Get and
// recovery replay never re-read disk after Open.
type Log struct {
	dir  string
	opts Options
	fs   FS

	// flushMu serializes flushes (syncer, explicit Sync, segment rolls,
	// Close) so staged bytes reach the file in append order. It is always
	// acquired before mu when both are held.
	flushMu sync.Mutex

	mu      sync.Mutex
	f       File
	pending []byte       // staged frames not yet written to the current segment
	spare   []byte       // recycled staging buffer
	segs    []segInfo    // closed and current segments, ascending index
	last    types.SeqNum // the next block appended must be last+1
	cp      *Checkpoint
	meta    Meta
	werr    error // sticky async write/fsync error, surfaced on Append/Sync
	closed  bool
	stats   Stats

	kick chan struct{} // signals the syncer that appends are staged
	done chan struct{}
	wg   sync.WaitGroup
}

var _ Store = (*Log)(nil)

// Open loads (or creates) the write-ahead log in dir, recovering to the
// last complete record: a damaged frame — truncated tail, CRC mismatch,
// torn write — truncates its segment there and discards later segments.
func Open(dir string, opts Options) (*Log, error) {
	opts.normalize()
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		fs:   opts.FS,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if err := l.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := l.loadMeta(); err != nil {
		return nil, err
	}
	if err := l.scanSegments(); err != nil {
		return nil, err
	}
	if l.last == 0 && l.cp != nil {
		// No record survived: the next append continues the anchor, as it
		// did before the restart (Reset, TruncateBelow).
		l.last = l.cp.Seq
	}
	if err := l.openCurrent(); err != nil {
		return nil, err
	}
	if !opts.SyncEachAppend {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// scanSegments reads every segment in index order, stopping at the first
// damaged frame.
func (l *Log) scanSegments() error {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var segs []segInfo
	for _, name := range names {
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"))
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{index: idx, path: filepath.Join(l.dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })

	for i := range segs {
		ok, err := l.scanSegment(&segs[i])
		if err != nil {
			return err
		}
		l.segs = append(l.segs, segs[i])
		if !ok {
			// Damage: later segments cannot be contiguous with the
			// truncated run, so they are dead.
			for _, dead := range segs[i+1:] {
				l.fs.Remove(dead.path)
			}
			l.stats.TailTruncated = true
			break
		}
	}
	return nil
}

// scanSegment lists one segment's frames, truncating at the first damaged
// or non-contiguous frame. It returns false when the segment was truncated.
// A listed frame keeps the bytes the scan read and checked.
func (l *Log) scanSegment(seg *segInfo) (bool, error) {
	buf, err := l.fs.ReadFile(seg.path)
	if err != nil {
		return false, err
	}
	if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
		// A segment without a valid magic is recreated empty.
		if err := l.fs.WriteFile(seg.path, []byte(segMagic)); err != nil {
			return false, err
		}
		seg.bytes = int64(len(segMagic))
		return false, nil
	}
	good := len(buf) // offset of the first damaged byte
	intact := true
	off := len(segMagic)
	for off < len(buf) {
		kind, payload, n := decodeFrame(buf[off:])
		seq, ok := frameSeq(kind, payload)
		if !ok || kind == recBlock && l.last != 0 && seq != l.last+1 {
			good, intact = off, false
			break
		}
		l.add(seg, frame{kind, seq, buf[off : off+n : off+n]})
		if kind == recBlock {
			l.stats.Loaded++
			l.stats.LoadedBytes += int64(n)
		}
		off += n
	}
	if !intact {
		if err := l.fs.Truncate(seg.path, int64(good)); err != nil {
			return false, err
		}
		seg.bytes = int64(good)
		return false, nil
	}
	seg.bytes = int64(len(buf))
	return true, nil
}

// decodeFrame parses one frame header from buf, returning (0, nil, 0) on
// any damage: short header, oversize or zero length, short payload, CRC
// mismatch, or an unknown record kind. The returned payload excludes the
// kind byte and aliases buf.
func decodeFrame(buf []byte) (byte, []byte, int) {
	if len(buf) < 8 {
		return 0, nil, 0
	}
	length := binary.BigEndian.Uint32(buf[0:4])
	crc := binary.BigEndian.Uint32(buf[4:8])
	if length == 0 || length > maxFrameLen || int(length) > len(buf)-8 {
		return 0, nil, 0
	}
	payload := buf[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, 0
	}
	switch payload[0] {
	case recBlock, recVote, recNote:
		return payload[0], payload[1:], 8 + int(length)
	}
	return 0, nil, 0
}

// frameSeq decodes the record in a frame's payload, borrowing, and returns
// the seq it is about; ok is false when the record does not decode (or the
// frame was damaged: kind 0).
func frameSeq(kind byte, payload []byte) (seq types.SeqNum, ok bool) {
	switch kind {
	case recBlock:
		var rec BlockRecord
		ok = decode(payload, rec.Wire)
		seq = rec.Seq
	case recVote:
		var v VoteRecord
		ok = decode(payload, v.wire)
		seq = v.Seq
	case recNote:
		var nt NoteRecord
		if ok = decode(payload, nt.wire); ok {
			seq = nt.Block.Seq
		}
	}
	return seq, ok
}

// decode runs walk over the whole of payload in borrow mode: the decoded
// record's byte fields alias the frame, which is never modified.
func decode(payload []byte, walk func(codec.Coder)) bool {
	r := &codec.Reader{Buf: payload, Borrow: true}
	walk(codec.Decoder(r))
	return r.Finish() == nil
}

// add lists f as the newest frame of seg; a block frame advances last.
// Callers hold mu (or are in Open, before the syncer starts).
func (l *Log) add(seg *segInfo, f frame) {
	seg.frames = append(seg.frames, f)
	if f.kind == recBlock {
		l.last = f.seq
	}
}

// openCurrent opens the newest segment for appending, creating the first
// one if none exists.
func (l *Log) openCurrent() error {
	if len(l.segs) == 0 {
		return l.roll()
	}
	seg := &l.segs[len(l.segs)-1]
	f, err := l.fs.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return err
	}
	l.f = f
	return nil
}

// roll flushes staged bytes into the current segment, fsyncs and closes it,
// and starts the next segment. Callers hold flushMu (or are in Open,
// before the syncer starts).
func (l *Log) roll() error {
	if l.f != nil {
		if err := l.flushStaged(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
	}
	next := 1
	if len(l.segs) > 0 {
		next = l.segs[len(l.segs)-1].index + 1
	}
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%08d.wal", next))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	l.mu.Lock()
	l.f = f
	l.segs = append(l.segs, segInfo{index: next, path: path, bytes: int64(len(segMagic))})
	l.mu.Unlock()
	return nil
}

// newFrame encodes one record frame in a buffer of its own: the length and
// CRC header, the record kind, then the record's walk.
func newFrame(kind byte, walk func(codec.Coder)) []byte {
	buf := make([]byte, 9, 9+codec.Size(walk))
	buf[8] = kind
	buf = codec.Encode(buf, walk)
	binary.BigEndian.PutUint32(buf[0:], uint32(len(buf)-8))
	binary.BigEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// stage is the one append path: it frames the record about seq, lists the
// frame in the current segment, stages its bytes and charges the segment.
// A block frame must continue last. A segment over its roll threshold is
// rolled, which flushes and fsyncs it, this frame included. Otherwise a
// durable append — and any append under SyncEachAppend, or one that finds
// more than stageBudget staged because the syncer is behind — writes and
// fsyncs before returning; every other append returns without a syscall,
// waking the syncer if it staged the first frame of a batch.
func (l *Log) stage(kind byte, seq types.SeqNum, walk func(codec.Coder), durable bool) error {
	buf := newFrame(kind, walk)

	l.mu.Lock()
	var err error
	switch {
	case l.closed:
		err = fmt.Errorf("storage: log closed")
	case l.werr != nil:
		err = l.werr
	case len(l.segs) == 0 || l.f == nil:
		// A failed Reset left no live segment; its sticky error was already
		// returned above, but guard against panics regardless.
		err = fmt.Errorf("storage: log has no live segment")
	case kind == recBlock && l.last != 0 && seq != l.last+1:
		err = fmt.Errorf("storage: non-contiguous append %d after %d", seq, l.last)
	}
	if err != nil {
		l.mu.Unlock()
		return err
	}
	seg := &l.segs[len(l.segs)-1]
	l.add(seg, frame{kind, seq, buf})
	if kind == recBlock {
		l.stats.Appended++
	}
	wasEmpty := len(l.pending) == 0
	l.pending = append(l.pending, buf...)
	seg.bytes += int64(len(buf))
	rollDue := seg.bytes > l.opts.SegmentBytes
	overBudget := len(l.pending) > stageBudget
	l.mu.Unlock()

	switch {
	case rollDue:
		l.flushMu.Lock()
		err := l.roll()
		l.flushMu.Unlock()
		if err != nil {
			l.fail(err)
		}
		return err
	case durable || l.opts.SyncEachAppend || overBudget:
		return l.Sync()
	case wasEmpty:
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// Append implements Store: the record is staged for the group commit, so no
// disk syscall happens on the execute path unless a segment roll or the
// stage budget is due (or SyncEachAppend is set). The log keeps the frame it
// encoded, never the caller's record, whose datablocks may borrow from a
// frame the caller releases later.
func (l *Log) Append(rec *BlockRecord) error {
	return l.stage(recBlock, rec.Seq, rec.Wire, false)
}

// AppendVote implements Store: the vote is staged with any pending block or
// note frames and flushed + fsynced before returning. Unlike block appends
// — whose group-commit window is safe because everything in it was
// quorum-confirmed and can be fetched back — a vote is the replica's own
// unilateral commitment: the caller broadcasts it the moment AppendVote
// returns, so the record must be durable first or a crash inside the batch
// window would forget a vote a peer already counted, re-opening the amnesia
// window vote-ahead logging exists to close. Staged block and note frames
// ride the same fsync, so a vote under load also commits the batch early.
func (l *Log) AppendVote(v VoteRecord) error {
	return l.stage(recVote, v.Seq, v.wire, true)
}

// Votes implements Store.
func (l *Log) Votes() []VoteRecord { return decoded[VoteRecord](l, recVote) }

// AppendNote implements Store: stage one notarization-certificate frame on
// the group-commit path. The frame is not fsynced here — callers follow it
// with the round-2 AppendVote, whose fsync covers both records in one
// batch; if staging fails, the same failure (sticky werr) surfaces on that
// AppendVote and aborts the vote.
func (l *Log) AppendNote(nt NoteRecord) error {
	return l.stage(recNote, nt.Block.Seq, nt.wire, false)
}

// Notes implements Store.
func (l *Log) Notes() []NoteRecord { return decoded[NoteRecord](l, recNote) }

// decoded returns the records in the retained frames of kind about a seq
// above the checkpoint anchor (below it they are history), in append
// order, each decoded afresh.
func decoded[T any, P interface {
	*T
	wire(codec.Coder)
}](l *Log, kind byte) []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	var recs []T
	for _, s := range l.segs {
		for _, f := range s.frames {
			var rec T
			if f.kind == kind && (l.cp == nil || f.seq > l.cp.Seq) && decode(f.buf[9:], P(&rec).wire) {
				recs = append(recs, rec)
			}
		}
	}
	return recs
}

// Err implements Store: the sticky async write/fsync error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.werr
}

// fail records a sticky async error.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.werr == nil {
		l.werr = err
	}
	l.mu.Unlock()
}

// syncLoop is the group-commit goroutine: woken by the first staged append,
// it waits out the batch window, then writes and fsyncs everything that
// accumulated.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-l.done:
			return
		case <-l.kick:
		}
		timer.Reset(l.opts.FsyncInterval)
		select {
		case <-l.done:
			timer.Stop()
			// Close performs the final sync.
			return
		case <-timer.C:
		}
		if err := l.Sync(); err != nil {
			l.fail(err)
		}
	}
}

// flushStaged writes the staged bytes to the current segment. Callers hold
// flushMu.
func (l *Log) flushStaged() error {
	l.mu.Lock()
	chunk := l.pending
	l.pending = l.spare[:0]
	// Invariant: spare never aliases pending's backing array. chunk (the
	// old pending) is recycled into spare only at the end, after the write
	// is done with it; until then spare is cleared, so no path — including
	// the empty-chunk and oversized-buffer skips below — can leave a later
	// flush handing f.Write a buffer that concurrent Appends are growing.
	l.spare = nil
	f := l.f
	l.mu.Unlock()
	var err error
	if len(chunk) > 0 && f != nil {
		_, err = f.Write(chunk)
	}
	l.mu.Lock()
	if cap(chunk) <= 8<<20 {
		l.spare = chunk[:0]
	}
	l.mu.Unlock()
	return err
}

// Sync implements Store: write staged appends and fsync the segment.
func (l *Log) Sync() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.werr != nil {
		err := l.werr
		l.mu.Unlock()
		return err
	}
	staged := len(l.pending) > 0
	f := l.f
	l.mu.Unlock()
	if !staged || f == nil {
		return nil
	}
	if err := l.flushStaged(); err != nil {
		l.fail(err)
		return err
	}
	if err := f.Sync(); err != nil {
		l.fail(err)
		return err
	}
	l.mu.Lock()
	l.stats.Syncs++
	l.mu.Unlock()
	return nil
}

// Get implements Store: the block frame at seq, decoded. Staged-but-
// unflushed records are served too: the retained frames are the read path,
// files are the durability.
func (l *Log) Get(seq types.SeqNum) (*BlockRecord, bool) {
	l.mu.Lock()
	buf, ok := l.block(seq)
	l.mu.Unlock()
	if !ok {
		return nil, false
	}
	rec := new(BlockRecord)
	if !decode(buf[9:], rec.Wire) {
		return nil, false
	}
	return rec, true
}

// block returns the bytes of the retained block frame at seq. The block
// frames of a segment ascend, so a binary search finds it; the probe at i
// looks at the first block frame from i on, stepping over vote and note
// frames. Callers hold mu.
func (l *Log) block(seq types.SeqNum) ([]byte, bool) {
	for _, s := range l.segs {
		fs := s.frames
		nextBlock := func(i int) int {
			for i < len(fs) && fs[i].kind != recBlock {
				i++
			}
			return i
		}
		i := nextBlock(sort.Search(len(fs), func(i int) bool {
			j := nextBlock(i)
			return j == len(fs) || fs[j].seq >= seq
		}))
		if i < len(fs) && fs[i].seq == seq {
			return fs[i].buf, true
		}
	}
	return nil, false
}

// Bounds implements Store: first is the seq of the oldest retained block
// frame.
func (l *Log) Bounds() (types.SeqNum, types.SeqNum) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		for _, f := range s.frames {
			if f.kind == recBlock {
				return f.seq, l.last
			}
		}
	}
	return 0, l.last
}

// SaveCheckpoint implements Store: write-through with atomic replace.
func (l *Log) SaveCheckpoint(cp Checkpoint) error {
	w := codec.GetWriter()
	cp.wire(codec.Encoder(w))
	err := writeAtomic(l.fs, filepath.Join(l.dir, "checkpoint"), ckptMagic, w.Buf)
	codec.PutWriter(w)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.cp = &cp
	l.mu.Unlock()
	return nil
}

// Checkpoint implements Store.
func (l *Log) Checkpoint() (Checkpoint, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cp == nil {
		return Checkpoint{}, false
	}
	return *l.cp, true
}

// SaveMeta implements Store: write-through with atomic replace.
func (l *Log) SaveMeta(m Meta) error {
	w := codec.GetWriter()
	m.wire(codec.Encoder(w))
	err := writeAtomic(l.fs, filepath.Join(l.dir, "meta"), metaMagic, w.Buf)
	codec.PutWriter(w)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.meta = m
	l.mu.Unlock()
	return nil
}

// Meta implements Store.
func (l *Log) Meta() Meta {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.meta
}

// TruncateBelow implements Store: the oldest segments go while every
// frame in them, of any kind, is about a seq at or below the bound — never
// the current segment. A segment that holds a vote or note above the bound
// stays, with the block frames in it, and so does every later segment, so
// the retained blocks stay contiguous (and servable to recovering peers).
// The upper bound stays: with no record left it is the last append or
// Reset's anchor, which the next append continues.
func (l *Log) TruncateBelow(seq types.SeqNum) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && !slices.ContainsFunc(l.segs[0].frames, func(f frame) bool { return f.seq > seq }) {
		l.fs.Remove(l.segs[0].path)
		l.segs = slices.Delete(l.segs, 0, 1)
	}
	return nil
}

// Reset implements Store: every segment is discarded and the log starts a
// fresh one, re-anchored so the next append must be seq+1. The caller has
// already durably saved the checkpoint that justifies abandoning the old
// records, so a crash between the save and this reset recovers correctly
// (replay from the anchor skips the stale records).
//
// Vote-ahead and notarization records above the new anchor survive the
// reset: the replica may have voted above the checkpoint it is jumping to,
// and dropping those locks (or the certificates its view-change messages
// must keep advertising) would reopen the amnesia window. Their frames are
// copied byte for byte into the fresh segment and fsynced there before the
// old segments are removed, so no crash point loses them; a crash before
// the removal only leaves stale frames that Votes and Notes filter against
// the anchor.
func (l *Log) Reset(seq types.SeqNum) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	l.pending = l.pending[:0]
	old := len(l.segs)
	var kept []frame
	for i := range l.segs {
		for _, fr := range l.segs[i].frames {
			if fr.kind != recBlock && fr.seq > seq {
				kept = append(kept, fr)
			}
		}
		l.segs[i].frames = nil
	}
	f := l.f
	l.f = nil
	l.last = seq
	l.mu.Unlock()
	if f != nil {
		f.Close()
	}
	// roll numbers the fresh segment after the newest old one, so the two
	// never share a file.
	if err := l.roll(); err != nil {
		// Leave the log in a failed-but-safe state: Append and Sync return
		// the sticky error instead of panicking on a missing segment.
		l.fail(err)
		return err
	}
	l.mu.Lock()
	cur := &l.segs[len(l.segs)-1]
	for _, fr := range kept {
		l.add(cur, fr)
		l.pending = append(l.pending, fr.buf...)
		cur.bytes += int64(len(fr.buf))
	}
	l.mu.Unlock()
	err := l.flushStaged()
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.fail(err)
		return err
	}
	l.mu.Lock()
	l.stats.Syncs++
	for _, s := range l.segs[:old] {
		l.fs.Remove(s.path)
	}
	l.segs = slices.Delete(l.segs, 0, old)
	l.mu.Unlock()
	return nil
}

// Stats implements Store.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = int64(len(l.segs))
	for _, seg := range l.segs {
		s.LiveBytes += seg.bytes
		for _, f := range seg.frames {
			switch {
			case f.kind == recBlock:
				s.Records++
			case l.cp != nil && f.seq <= l.cp.Seq:
				// history, as Votes and Notes see it
			case f.kind == recVote:
				s.Votes++
			default:
				s.Notes++
			}
		}
	}
	return s
}

// Close implements Store: stop the syncer, final write + fsync.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	if l.f == nil {
		return nil // a failed Reset already closed the segment
	}
	if err := l.flushStaged(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	return l.f.Close()
}

// writeAtomic replaces path with magic || frame(payload) via a fsynced
// temporary file and rename, so the file is always either the old or the
// new complete record.
func writeAtomic(fs FS, path, magic string, payload []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := f.Write([]byte(magic)); err == nil {
		if _, err2 := f.Write(hdr[:]); err2 != nil {
			err = err2
		} else if _, err3 := f.Write(payload); err3 != nil {
			err = err3
		}
	}
	if err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.Rename(tmp, path)
}

// readAtomic loads a file written by writeAtomic. A missing file returns
// (nil, nil); a damaged one returns an error.
func readAtomic(fs FS, path, magic string) ([]byte, error) {
	buf, err := fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(buf) < len(magic)+8 || string(buf[:len(magic)]) != magic {
		return nil, fmt.Errorf("storage: %s: bad header", filepath.Base(path))
	}
	body := buf[len(magic):]
	length := binary.BigEndian.Uint32(body[0:4])
	crc := binary.BigEndian.Uint32(body[4:8])
	if int(length) != len(body)-8 || crc32.ChecksumIEEE(body[8:]) != crc {
		return nil, fmt.Errorf("storage: %s: corrupt record", filepath.Base(path))
	}
	return body[8:], nil
}

func (l *Log) loadCheckpoint() error {
	payload, err := readAtomic(l.fs, filepath.Join(l.dir, "checkpoint"), ckptMagic)
	if err != nil || payload == nil {
		return err
	}
	cp := new(Checkpoint)
	if err := codec.Decode(payload, cp.wire); err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	l.cp = cp
	return nil
}

func (l *Log) loadMeta() error {
	payload, err := readAtomic(l.fs, filepath.Join(l.dir, "meta"), metaMagic)
	if err != nil || payload == nil {
		return err
	}
	var m Meta
	if err := codec.Decode(payload, m.wire); err != nil {
		return fmt.Errorf("storage: meta: %w", err)
	}
	l.meta = m
	return nil
}
