package erasure

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// DefaultCacheSize is the capacity of a codec's decode-matrix LRU.
	// A steady-state retrieval committee re-sees the same index set
	// almost every time, so a handful of entries suffices. Entries are
	// not free: beyond the k×k inverse, each entry's first decode
	// compiles ~ceil(k/8)·k·2 KiB of grouped tables (~256 KiB at k=32),
	// so it is kept small.
	DefaultCacheSize = 8

	// parallelMinShard is the per-shard byte threshold below which row
	// generation stays serial: goroutine fan-out costs more than it saves
	// on small blocks.
	parallelMinShard = 16 * 1024
)

// Errors returned by the codec.
var (
	ErrInvalidParams = errors.New("erasure: invalid code parameters")
	ErrTooFewChunks  = errors.New("erasure: not enough chunks to reconstruct")
	ErrChunkSize     = errors.New("erasure: inconsistent chunk sizes")
	ErrShortData     = errors.New("erasure: encoded length does not match")
)

// Chunk is one erasure-coded piece of a message along with its index in the
// code (0..n-1). Indices < k carry systematic data.
type Chunk struct {
	Index int
	Data  []byte
}

// Codec is a systematic (k, n) Reed–Solomon code: Split a message into k
// data chunks, extend to n total chunks; any k chunks reconstruct.
//
// Every parity and decoded row is computed by one kernel, the grouped
// 8-row program of group.go. A Codec is safe for concurrent use. Heavy
// state is built lazily and shared: per-coefficient multiplication tables
// materialize on first use of a coefficient, the parity program on the
// first Encode, and decode programs are cached with their inverted matrix
// per chunk-index set, so a long-lived Codec amortizes all setup across
// calls. Build one per (k, n) and reuse it.
type Codec struct {
	k, n int
	// workers bounds the goroutines used for parity-row generation and
	// decode-row reconstruction on shards of parallelMinShard and above.
	workers int
	encode  *matrix // n×k; top k×k block is the identity

	// tables[c] is the 256-byte multiplication table for coefficient c,
	// built lazily on first use. Concurrent builders may race benignly:
	// the table contents are deterministic, so any winner is correct.
	tables [fieldSize]atomic.Pointer[[256]byte]

	// parityProg is the grouped parity-generation program (see group.go),
	// compiled once on first Encode.
	encodeOnce sync.Once
	parityProg *rowProg

	// inverses caches decode programs, keyed by the selected chunk-index
	// set (nil when a test built the codec without a cache).
	inverses *inverseCache
}

// NewCodec builds a (k, n) codec that fans large blocks out over up to
// runtime.NumCPU() workers and caches DefaultCacheSize decode matrices.
// Requires 1 <= k <= n <= 256.
func NewCodec(k, n int) (*Codec, error) {
	return newCodec(k, n, runtime.NumCPU(), DefaultCacheSize)
}

// newCodec builds a codec with an explicit worker bound (1 is serial) and
// cache capacity (0 is none); tests use it for their reference arms.
func newCodec(k, n, workers, cacheSize int) (*Codec, error) {
	if k < 1 || n < k || n > fieldSize {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrInvalidParams, k, n)
	}
	// Build a systematic encoding matrix: take the n×k Vandermonde matrix V,
	// and normalize so the top k×k block becomes the identity: E = V · (V_top)^-1.
	// Any k rows of E remain invertible because row operations preserve that
	// property of the Vandermonde construction.
	v := vandermonde(n, k)
	top := v.subMatrix(0, k, 0, k)
	topInv, err := top.invert()
	if err != nil {
		// Vandermonde top block with distinct points is always invertible.
		return nil, fmt.Errorf("erasure: internal setup failure: %w", err)
	}
	return &Codec{
		k:        k,
		n:        n,
		workers:  workers,
		encode:   v.mul(topInv),
		inverses: newInverseCache(cacheSize),
	}, nil
}

// ChunkSize returns the chunk length for a message of dataLen bytes. The
// empty message still occupies one byte per chunk so that encoded chunks
// are never zero-length; Encode, Decode and Reconstruct all agree on this.
func (c *Codec) ChunkSize(dataLen int) int {
	if dataLen <= 0 {
		return 1
	}
	return (dataLen + c.k - 1) / c.k
}

// table returns the multiplication table for coefficient coef, building it
// on first use.
func (c *Codec) table(coef byte) *[256]byte {
	if t := c.tables[coef].Load(); t != nil {
		return t
	}
	t := buildMulTable(coef)
	c.tables[coef].Store(t)
	return t
}

// forRows runs fn(0..rows-1), fanning out across a bounded worker pool when
// the per-row payload is large enough to amortize goroutine handoff. Rows
// must be independent (each fn(i) writes only row i).
func (c *Codec) forRows(rows, shardSize int, fn func(row int)) {
	workers := c.workers
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || rows < 2 || shardSize < parallelMinShard {
		for i := 0; i < rows; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= rows {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// shardPool recycles the contiguous backing arrays used for intermediate
// shard math (Reconstruct's decoded image). Output buffers that escape to
// callers are never pooled. Buffers come back dirty: every decodeInto
// path overwrites dst fully, so no up-front memset is paid.
var shardPool = sync.Pool{New: func() any { return []byte(nil) }}

func getShardBuf(n int) []byte {
	buf := shardPool.Get().([]byte)
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

func putShardBuf(buf []byte) { shardPool.Put(buf) } //nolint:staticcheck // slice header boxing is fine here

// Encode splits data into k systematic chunks plus n-k parity chunks.
// The message length is restored by Decode callers via the original length.
// All chunks share one contiguous backing array (a single allocation).
func (c *Codec) Encode(data []byte) ([]Chunk, error) {
	size := c.ChunkSize(len(data))
	backing := make([]byte, c.n*size)
	shards := make([][]byte, c.n)
	for i := range shards {
		shards[i] = backing[i*size : (i+1)*size]
	}
	// Systematic chunks: zero-padded slices of the message.
	for i := 0; i < c.k; i++ {
		start := i * size
		if start < len(data) {
			end := start + size
			if end > len(data) {
				end = len(data)
			}
			copy(shards[i], data[start:end])
		}
	}
	// Parity chunks: rows k..n of the encode matrix times the data chunks.
	if c.n > c.k {
		c.runProg(c.encodeProg(), shards[:c.k], shards[c.k:], size)
	}
	out := make([]Chunk, c.n)
	for i, s := range shards {
		out[i] = Chunk{Index: i, Data: s}
	}
	return out, nil
}

// selectChunks picks the first k distinct in-range chunks and returns them
// sorted by index (the canonical order used for decode-matrix cache keys).
func (c *Codec) selectChunks(chunks []Chunk, size int) ([]Chunk, error) {
	if len(chunks) < c.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewChunks, len(chunks), c.k)
	}
	seen := make(map[int]struct{}, c.k)
	sel := make([]Chunk, 0, c.k)
	for _, ch := range chunks {
		if ch.Index < 0 || ch.Index >= c.n {
			continue
		}
		if _, dup := seen[ch.Index]; dup {
			continue
		}
		if len(ch.Data) != size {
			return nil, fmt.Errorf("%w: chunk %d has %d bytes, want %d", ErrChunkSize, ch.Index, len(ch.Data), size)
		}
		seen[ch.Index] = struct{}{}
		sel = append(sel, ch)
		if len(sel) == c.k {
			break
		}
	}
	if len(sel) < c.k {
		return nil, fmt.Errorf("%w: only %d distinct valid chunks", ErrTooFewChunks, len(sel))
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].Index < sel[j].Index })
	return sel, nil
}

// decodeEntry is one cached decode program: the inverted decode matrix for
// an index set, plus the grouped row program compiled from it on first
// decode. Entries are shared across goroutines; the matrix and
// program are immutable once published.
type decodeEntry struct {
	inv  *matrix
	once sync.Once
	prog *rowProg
}

// program returns the grouped program for this entry, compiling it once.
func (e *decodeEntry) program(c *Codec) *rowProg {
	e.once.Do(func() {
		rows := make([][]byte, e.inv.rows)
		for j := range rows {
			rows[j] = e.inv.row(j)
		}
		e.prog = c.compileRowProg(rows)
	})
	return e.prog
}

// decodeMatrix returns the decode entry for the given (index-sorted)
// selection, consulting the LRU cache first. The returned entry is shared
// and must not be modified.
func (c *Codec) decodeMatrix(sel []Chunk) (*decodeEntry, error) {
	var key string
	if c.inverses != nil {
		kb := make([]byte, len(sel))
		for i, ch := range sel {
			kb[i] = byte(ch.Index)
		}
		key = string(kb)
		if e := c.inverses.get(key); e != nil {
			return e, nil
		}
	}
	sub := newMatrix(c.k, c.k)
	for r, ch := range sel {
		copy(sub.row(r), c.encode.row(ch.Index))
	}
	inv, err := sub.invert()
	if err != nil {
		return nil, err
	}
	e := &decodeEntry{inv: inv}
	if c.inverses != nil {
		c.inverses.put(key, e)
	}
	return e, nil
}

// decodeInto reconstructs the k data shards from sel (index-sorted, all of
// length size) into dst, which must hold k*size bytes; prior contents are
// ignored (every path overwrites all of dst).
func (c *Codec) decodeInto(dst []byte, sel []Chunk, size int) error {
	// Fast path: an all-systematic selection must be exactly chunks
	// 0..k-1, which are the data itself — no matrix math at all.
	if sel[c.k-1].Index < c.k {
		for i, ch := range sel {
			copy(dst[i*size:(i+1)*size], ch.Data)
		}
		return nil
	}
	entry, err := c.decodeMatrix(sel)
	if err != nil {
		return err
	}
	// data_j = sum_r inv[j][r] * chunk_r.
	srcs := make([][]byte, len(sel))
	outs := make([][]byte, c.k)
	for r, ch := range sel {
		srcs[r] = ch.Data
		outs[r] = dst[r*size : (r+1)*size]
	}
	c.runProg(entry.program(c), srcs, outs, size)
	return nil
}

// Decode reconstructs the original message of length dataLen from any k
// distinct valid chunks.
func (c *Codec) Decode(chunks []Chunk, dataLen int) ([]byte, error) {
	size := c.ChunkSize(dataLen)
	sel, err := c.selectChunks(chunks, size)
	if err != nil {
		return nil, err
	}
	data := make([]byte, c.k*size)
	if err := c.decodeInto(data, sel, size); err != nil {
		return nil, err
	}
	if dataLen > len(data) {
		return nil, fmt.Errorf("%w: reconstructed %d bytes, want %d", ErrShortData, len(data), dataLen)
	}
	return data[:dataLen], nil
}

// Reconstruct recomputes all n chunks from any k valid chunks; useful for a
// replica that wants to re-serve parity after recovering the data. The
// intermediate decoded image lives in a pooled buffer, so the only
// allocations are the returned chunk set.
func (c *Codec) Reconstruct(chunks []Chunk, dataLen int) ([]Chunk, error) {
	size := c.ChunkSize(dataLen)
	sel, err := c.selectChunks(chunks, size)
	if err != nil {
		return nil, err
	}
	buf := getShardBuf(c.k * size)
	defer putShardBuf(buf)
	if err := c.decodeInto(buf, sel, size); err != nil {
		return nil, err
	}
	if dataLen > len(buf) {
		return nil, fmt.Errorf("%w: reconstructed %d bytes, want %d", ErrShortData, len(buf), dataLen)
	}
	return c.Encode(buf[:dataLen])
}
