package erasure

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkErasureShape times Encode and Reconstruct at the retrieval
// shapes of leopard-bench's workloads: an (f+1, n) code over one marshalled
// datablock. n4-small and n4-crash share the first shape.
func BenchmarkErasureShape(b *testing.B) {
	for _, s := range []struct {
		name    string
		n, size int
	}{
		{"n4-small", 4, 14816},   // 100 requests of 128 B
		{"n16-small", 16, 14816}, // 100 requests of 128 B
		{"n4-large", 4, 524624},  // 16 requests of 32 KiB
	} {
		k := (s.n-1)/3 + 1
		codec, err := NewCodec(k, s.n)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, s.size)
		rand.New(rand.NewSource(5)).Read(data)
		chunks, err := codec.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/k=%d/Encode", s.name, k), func(b *testing.B) {
			b.SetBytes(int64(s.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Encode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		// From the last f+1 chunks, so every data chunk is decoded.
		tail := chunks[s.n-k:]
		b.Run(fmt.Sprintf("%s/k=%d/Reconstruct", s.name, k), func(b *testing.B) {
			b.SetBytes(int64(s.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Reconstruct(tail, s.size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
