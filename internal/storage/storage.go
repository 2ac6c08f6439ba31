// Package storage provides the durability layer for a Leopard replica: a
// segmented, CRC-checked append-only write-ahead log of executed blocks,
// plus durable stable-checkpoint and replica-local metadata records.
//
// # What is persisted
//
// The unit of durability is the executed block: a BlockRecord carries the
// BFTblock, both agreement proofs (σ1 notarization over H(block), σ2
// confirmation over H(σ1)) and the full datablocks the block links — enough
// for a restarted replica to replay its executed prefix without the
// network, and enough for a peer to serve the record over the state-transfer
// protocol to a recovering replica that can verify it independently.
// Alongside the log, the latest stable checkpoint (sequence number, state
// hash, quorum proof — the paper's Alg. 4 certificate) is kept in its own
// atomically-replaced file: it is the anchor a recovering replica trusts
// when its own log no longer reaches back far enough, and the bound below
// which log segments are garbage.
//
// # What is held in memory
//
// The log holds the bytes it wrote: every frame of its live segments, as
// written (or as Open read and checked it), listed per segment and never
// modified. Nothing is kept decoded. Get, Votes and Notes decode the frames
// on each call, with byte fields borrowed from the held bytes, so a record
// they return is the caller's own but read-only.
//
// # Durability model
//
// Appends are group-committed: Append buffers the framed record and returns
// immediately; a background syncer flushes and fsyncs at most once per
// Options.FsyncInterval. The hot execute path therefore never waits on the
// disk (see BenchmarkWALAppend), at the cost of a bounded window — up to one
// interval of executed blocks — that a crash may lose. That window is safe
// by construction: everything in it was confirmed by a quorum, so the
// recovering replica fetches it back via state transfer exactly as it
// fetches blocks executed while it was down. Vote-ahead records are the
// exception: a vote is the replica's own unilateral commitment and is
// broadcast the moment AppendVote returns, so AppendVote flushes and fsyncs
// before returning (taking any staged block and note frames along in the
// same batch). Checkpoints and metadata are small and rare, and are always
// written through (write, fsync, rename).
//
// # Recovery semantics
//
// Open scans segments in order and stops at the first damaged frame —
// truncated tail, CRC mismatch, or torn mid-record write — truncating the
// log to the last complete record and discarding any later segments. The
// replica's durable state is the checkpoint anchor plus the contiguous run
// of records above it; FuzzWALReplay asserts the scan never panics and
// never fabricates a record from damage.
package storage

import (
	"leopard/internal/codec"
	"leopard/internal/crypto"
	"leopard/internal/types"
)

// BlockRecord is one executed block as persisted in the WAL and shipped by
// the state-transfer protocol: the block, its two agreement proofs, and the
// linked datablocks in Content order.
type BlockRecord struct {
	Seq       types.SeqNum
	Block     *types.BFTblock
	Notarized crypto.Proof // σ1 over H(block)
	Confirmed crypto.Proof // σ2 over H(σ1)
	// Datablocks holds the full linked datablocks, aligned with
	// Block.Content (Datablocks[i] hashes to Content[i]).
	Datablocks []*types.Datablock
}

// WireSize returns the record's encoded size in bytes.
func (rec *BlockRecord) WireSize() int { return codec.Size(rec.Wire) }

// Wire is the record's one layout, walked by the WAL in both directions and
// by the state-transfer message that embeds it; decoding runs in the
// Coder's mode (borrow or copy) and makes no trailing-bytes check, since the
// record may sit inside a larger frame. The datablock count is implied by
// len(Block.Content), so a record has exactly one encoding.
func (rec *BlockRecord) Wire(c codec.Coder) {
	codec.U64(c, &rec.Seq)
	c.BFTblock(&rec.Block)
	c.Bytes(&rec.Notarized.Sig)
	c.Bytes(&rec.Confirmed.Sig)
	if c.Decoding() && rec.Block != nil && len(rec.Block.Content) > 0 {
		rec.Datablocks = make([]*types.Datablock, len(rec.Block.Content))
	}
	for i := range rec.Datablocks {
		c.Datablock(&rec.Datablocks[i])
	}
}

// VoteRecord persists one agreement vote cast above the executed frontier
// (vote-ahead logging). A replica that crashes between voting and executing
// would otherwise forget the vote and could sign different content for the
// same (view, seq) slot after restart; reloading these records at Start
// re-locks those slots and closes that amnesia window.
type VoteRecord struct {
	View   types.View
	Seq    types.SeqNum
	Round  uint8 // 1 = σ1 (over H(block)), 2 = σ2 (over H(σ1))
	Digest types.Hash
}

func (v *VoteRecord) wire(c codec.Coder) {
	codec.U64(c, &v.View)
	codec.U64(c, &v.Seq)
	codec.U8(c, &v.Round)
	c.Hash(&v.Digest)
}

// NoteRecord persists the notarization certificate a round-2 vote endorses:
// the notarized block and its σ1 proof. The redo plan's quorum-intersection
// argument assumes every view-change quorum contains an honest σ2 voter
// that still advertises the notarized block; a voter that crash-restarted
// would otherwise have lost it (the replica keeps it in memory only),
// letting a confirmed block be redone as a dummy. The certificate is
// therefore logged alongside the round-2 VoteRecord and reloaded at Start.
type NoteRecord struct {
	Block     *types.BFTblock
	Notarized crypto.Proof // σ1 over H(block)
}

func (nt *NoteRecord) wire(c codec.Coder) {
	c.BFTblock(&nt.Block)
	c.Bytes(&nt.Notarized.Sig)
}

// Checkpoint is the durable stable-checkpoint record: the Alg. 4 quorum
// certificate anchoring recovery and log truncation.
type Checkpoint struct {
	Seq       types.SeqNum
	StateHash types.Hash
	Proof     crypto.Proof
}

func (cp *Checkpoint) wire(c codec.Coder) {
	codec.U64(c, &cp.Seq)
	c.Hash(&cp.StateHash)
	c.Bytes(&cp.Proof.Sig)
}

// Meta is small replica-local state that must survive restarts but is not
// part of the replicated log: the view the replica last entered, and a
// reserved ceiling for its datablock counter. The counter reservation keeps
// restarts from reusing a (generator, counter) pair — peers dedup
// datablocks by that pair, so a reuse would make every peer silently reject
// the restarted replica's fresh datablocks. The replica persists a reserve
// some slack above its live counter and resumes from the reserve, skipping
// at most the slack.
type Meta struct {
	View           types.View
	CounterReserve uint64
}

func (m *Meta) wire(c codec.Coder) {
	codec.U64(c, &m.View)
	codec.U64(c, &m.CounterReserve)
}

// Stats describes a store's shape and activity, for the metrics surface
// (leopard-node -status, experiment reports).
type Stats struct {
	// Segments is the number of live WAL segment files.
	Segments int64
	// LiveBytes is the total size of live segment files.
	LiveBytes int64
	// Records is the number of block records currently retained.
	Records int64
	// Appended counts records appended this session.
	Appended int64
	// Votes is the number of vote-ahead records currently retained.
	Votes int64
	// Notes is the number of notarization records currently retained.
	Notes int64
	// Loaded counts records recovered from disk at Open.
	Loaded int64
	// LoadedBytes is the byte volume of records recovered at Open.
	LoadedBytes int64
	// Syncs counts fsync batches issued.
	Syncs int64
	// TailTruncated reports whether Open discarded a damaged tail.
	TailTruncated bool
}

// Store is the durability interface a replica persists through. Log, a WAL
// over an FS (OsFS in deployments, MemFS in the simulator), is its one
// implementation. All methods are safe for use from the replica's single
// event loop; Log additionally synchronizes with its background syncer.
type Store interface {
	// Append durably logs one executed block. Records must be appended in
	// strictly increasing, contiguous Seq order above the checkpoint. The
	// store keeps none of the caller's memory: it holds the bytes of the
	// frame it wrote, so the caller may reuse or release the record's bytes
	// (a datablock's frame) as soon as Append returns.
	Append(rec *BlockRecord) error
	// AppendVote durably logs one agreement vote above the executed
	// frontier (vote-ahead logging). Unlike Append, the record is flushed
	// and fsynced before AppendVote returns — the caller broadcasts the
	// vote immediately after, so the durable lock must already cover
	// anything a peer may count. Any staged block or note frames ride the
	// same fsync.
	AppendVote(v VoteRecord) error
	// Votes returns the retained vote-ahead records above the checkpoint
	// anchor, in append order, decoded afresh.
	Votes() []VoteRecord
	// AppendNote logs the notarization certificate a round-2 vote
	// endorses. The frame is staged only: callers follow it with the
	// round-2 AppendVote, whose fsync covers both records (and whose
	// failure, via the sticky error, aborts the vote).
	AppendNote(nt NoteRecord) error
	// Notes returns the retained notarization records above the checkpoint
	// anchor, in append order, decoded afresh.
	Notes() []NoteRecord
	// Err returns the store's sticky failure, if any: once the backing
	// medium has failed an async write or fsync, the store refuses further
	// appends and the replica must fail-stop its agreement participation.
	Err() error
	// Get returns the retained record at seq, if present, decoded on each
	// call. The record is read-only: its byte fields borrow from the bytes
	// the store holds.
	Get(seq types.SeqNum) (*BlockRecord, bool)
	// Bounds returns the lowest and highest retained record seq; every
	// record between them is retained. With no record retained, first is 0
	// and last is what the next append continues: the last append, even
	// once truncation has dropped its record, or a later Reset's anchor;
	// on a store opened with no record, the checkpoint anchor (0 on a
	// fresh store).
	Bounds() (first, last types.SeqNum)
	// SaveCheckpoint durably replaces the stable-checkpoint anchor.
	SaveCheckpoint(cp Checkpoint) error
	// Checkpoint returns the saved anchor, if any.
	Checkpoint() (Checkpoint, bool)
	// SaveMeta durably replaces the replica-local metadata.
	SaveMeta(m Meta) error
	// Meta returns the saved metadata (zero value when never saved).
	Meta() Meta
	// TruncateBelow garbage-collects what is about a seq <= the given
	// bound (the advanced low watermark). Log drops whole segments only,
	// oldest first and never the live one, and only a segment whose every
	// frame — block, vote or note — is at or below the bound: a vote or
	// note above it keeps its segment, and the records below the bound
	// there stay retained and may still be served to recovering peers.
	TruncateBelow(seq types.SeqNum) error
	// Reset drops every record and re-anchors the log at seq: the next
	// append must be seq+1. Used when the replica adopts a checkpoint it
	// cannot reach by replay (state-transfer jump) — everything logged
	// before the anchor is obsolete history below a stable checkpoint.
	// Vote-ahead and notarization records above seq survive it, and are
	// durable when it returns.
	Reset(seq types.SeqNum) error
	// Sync forces any buffered appends to durable storage.
	Sync() error
	// Stats returns the store's counters.
	Stats() Stats
	// Close releases resources after a final Sync.
	Close() error
}
