package leopard

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoder")

// TestWireGolden pins the wire contract byte for byte: the frame and the
// WireSize of every testMessages() entry must equal the recorded ones, so a
// change to a walk that moves a byte (or to the simulator's size model)
// fails here instead of between two deployed versions.
func TestWireGolden(t *testing.T) {
	const path = "testdata/wire.golden"
	var lines []string
	for _, msg := range testMessages() {
		buf, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		lines = append(lines, fmt.Sprintf("%T size=%d %x", msg, msg.WireSize(), buf))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d messages, golden file has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("frame moved:\n got %s\nwant %s", lines[i], wantLines[i])
		}
	}
}
