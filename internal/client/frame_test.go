package client

import (
	"bytes"
	"testing"
)

// countingWriter records how many Write calls it received.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestFrameRoundTrip(t *testing.T) {
	var w countingWriter
	bodies := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xab}, 4096)}
	for _, body := range bodies {
		if err := WriteFrame(&w, body); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != len(bodies) {
		t.Fatalf("%d frames took %d writes, want one write per frame", len(bodies), w.writes)
	}
	for _, body := range bodies {
		got, err := ReadFrame(&w.Buffer, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("read %d bytes, want %d", len(got), len(body))
		}
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 65)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 64); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestReadFrameShortRead(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("truncated")); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{2, 4, buf.Len() - 1} {
		if _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:cut]), 64); err == nil {
			t.Fatalf("frame cut to %d bytes accepted", cut)
		}
	}
}
