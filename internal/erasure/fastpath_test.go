package erasure

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Tests for the dissemination fast path: the grouped kernel, the
// decode-matrix cache, worker parallelism, and the zero-length contract.

// TestChunkSizeEncodeAgree pins the empty/short-message contract: ChunkSize
// is what Encode actually produces and what Decode/Reconstruct require, for
// the degenerate sizes that used to disagree (ChunkSize(0) was 0 while
// Encode silently promoted it to 1).
func TestChunkSizeEncodeAgree(t *testing.T) {
	codec, err := NewCodec(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 2, 3, 4} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i + 1)
		}
		chunks, err := codec.Encode(data)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		want := codec.ChunkSize(size)
		if want < 1 {
			t.Fatalf("ChunkSize(%d) = %d; chunks must never be empty", size, want)
		}
		for _, ch := range chunks {
			if len(ch.Data) != want {
				t.Fatalf("size %d: chunk %d has %d bytes, ChunkSize says %d", size, ch.Index, len(ch.Data), want)
			}
		}
		got, err := codec.Decode(chunks[4:7], size)
		if err != nil {
			t.Fatalf("size %d decode: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
		rebuilt, err := codec.Reconstruct(chunks[2:5], size)
		if err != nil {
			t.Fatalf("size %d reconstruct: %v", size, err)
		}
		for i := range chunks {
			if !bytes.Equal(chunks[i].Data, rebuilt[i].Data) {
				t.Fatalf("size %d: reconstructed chunk %d differs", size, i)
			}
		}
	}
}

// TestPropertyRandomErasures drives random (k, n) up to (32, 64), random
// data with shards from 0 to 6 KiB, and random erasure patterns through
// Decode(Encode(data)), and asserts the cached-inverse path is bitwise
// identical to the cold path.
func TestPropertyRandomErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(32)
		n := k + rng.Intn(64-k+1)
		// Cold codec per trial so the first Decode is a guaranteed miss.
		codec, err := NewCodec(k, n)
		if err != nil {
			t.Fatal(err)
		}
		// Shards from a few bytes (tail-only transposes) to past one
		// groupBlock work unit.
		size := rng.Intn(3 * 4096 * k / 2)
		data := make([]byte, size)
		rng.Read(data)
		chunks, err := codec.Encode(data)
		if err != nil {
			t.Fatalf("trial %d (k=%d n=%d size=%d): %v", trial, k, n, size, err)
		}
		// Random erasure pattern: keep a random k-subset.
		perm := rng.Perm(n)[:k]
		subset := make([]Chunk, 0, k)
		for _, idx := range perm {
			subset = append(subset, chunks[idx])
		}
		cold, err := codec.Decode(subset, size)
		if err != nil {
			t.Fatalf("trial %d (k=%d n=%d size=%d): cold decode: %v", trial, k, n, size, err)
		}
		if !bytes.Equal(cold, data) {
			t.Fatalf("trial %d (k=%d n=%d size=%d): cold decode mismatch", trial, k, n, size)
		}
		// Same selection again: must hit the cache and match bit for bit.
		warm, err := codec.Decode(subset, size)
		if err != nil {
			t.Fatalf("trial %d: warm decode: %v", trial, err)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("trial %d: cached-inverse decode differs from cold path", trial)
		}
		if hits, _ := codec.CacheStats(); hits == 0 && !allSystematic(subset, k) {
			t.Fatalf("trial %d: repeated selection did not hit the decode-matrix cache", trial)
		}
	}
}

func allSystematic(sel []Chunk, k int) bool {
	for _, ch := range sel {
		if ch.Index >= k {
			return false
		}
	}
	return true
}

// TestDecodeCacheSteadyState asserts the acceptance criterion directly:
// after the first decode of an index set, steady-state decodes perform zero
// matrix inversions (all cache hits, misses stay constant).
func TestDecodeCacheSteadyState(t *testing.T) {
	codec, err := NewCodec(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(17)).Read(data)
	chunks, err := codec.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	parity := chunks[32:] // non-systematic so every decode needs the matrix
	for i := 0; i < 10; i++ {
		got, err := codec.Decode(parity, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("decode %d: mismatch", i)
		}
	}
	hits, misses := codec.CacheStats()
	if misses != 1 {
		t.Fatalf("steady-state decode inverted the matrix %d times, want exactly 1 (the cold call)", misses)
	}
	if hits != 9 {
		t.Fatalf("cache hits = %d, want 9", hits)
	}
}

// TestDecodeCacheDisabled ensures a codec without a cache still decodes
// correctly.
func TestDecodeCacheDisabled(t *testing.T) {
	codec, err := newCodec(4, 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("cacheless decoding still works fine")
	chunks, err := codec.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Decode(chunks[4:], len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch with cache disabled")
	}
	if hits, misses := codec.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache reported hits=%d misses=%d", hits, misses)
	}
}

// TestParallelMatchesSerial forces the worker pool on and checks output
// equality against the serial path for sizes above the parallel threshold.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := newCodec(11, 32, 1, DefaultCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := newCodec(11, 32, 4, DefaultCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*1024*1024) // ~190 KiB shards, well above thresholds
	rand.New(rand.NewSource(23)).Read(data)
	sc, err := serial.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parallel.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc {
		if !bytes.Equal(sc[i].Data, pc[i].Data) {
			t.Fatalf("parallel encode differs at chunk %d", i)
		}
	}
	sd, err := serial.Decode(sc[21:], len(data))
	if err != nil {
		t.Fatal(err)
	}
	pd, err := parallel.Decode(pc[21:], len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sd, pd) || !bytes.Equal(sd, data) {
		t.Fatal("parallel decode differs from serial")
	}
}

// TestTranspose8x8 checks the byte-matrix transpose against the naive
// definition.
func TestTranspose8x8(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		var m [8][8]byte
		var w [8]uint64
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				m[i][j] = byte(rng.Intn(256))
			}
			var row [8]byte
			copy(row[:], m[i][:])
			w[i] = binary.LittleEndian.Uint64(row[:])
		}
		transpose8x8(&w)
		for i := 0; i < 8; i++ {
			var row [8]byte
			binary.LittleEndian.PutUint64(row[:], w[i])
			for j := 0; j < 8; j++ {
				if row[j] != m[j][i] {
					t.Fatalf("trial %d: transposed (%d,%d) = %02x, want %02x", trial, i, j, row[j], m[j][i])
				}
			}
		}
	}
}

// TestGroupKernelMatchesNaive cross-checks the grouped program against the
// naive log/exp product on the same inputs, at shard sizes from one byte to
// past two groupBlock units.
func TestGroupKernelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, cfg := range []struct{ k, n int }{{1, 2}, {3, 7}, {5, 16}, {11, 32}, {32, 64}, {13, 14}} {
		small, err := NewCodec(cfg.k, cfg.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, shard := range []int{1, 7, 4095, 4096, 4109} {
			data := make([]byte, shard*cfg.k-rng.Intn(shard))
			rng.Read(data)
			chunks, err := small.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			// Reference parity via the naive product.
			size := small.ChunkSize(len(data))
			for i := cfg.k; i < cfg.n; i++ {
				want := make([]byte, size)
				row := small.encode.row(i)
				for j := 0; j < cfg.k; j++ {
					mulSliceAdd(row[j], chunks[j].Data, want)
				}
				if !bytes.Equal(want, chunks[i].Data) {
					t.Fatalf("(k=%d n=%d shard=%d): parity row %d differs from naive", cfg.k, cfg.n, shard, i)
				}
			}
		}
	}
}
