package client

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ReadFrame reads one client-port frame: a 4-byte big-endian length, then
// that many body bytes. Bodies over max are rejected before anything is
// allocated. The returned slice is freshly allocated per frame, so its
// ownership can pass to a borrow-mode decoder (leopard.DecodeMessage).
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if uint64(size) > uint64(max) {
		return nil, fmt.Errorf("client: frame of %d bytes exceeds limit %d", size, max)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, fmt.Errorf("client: short frame: %w", err)
	}
	return frame, nil
}

// WriteFrame writes body as one length-prefixed frame in a single Write,
// so a TCP_NODELAY connection sends header and body in one segment.
func WriteFrame(w io.Writer, body []byte) error {
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	_, err := w.Write(buf)
	return err
}
