//go:build !race

// The race detector instruments allocations and defeats the measurement,
// so this file is excluded from -race builds.

package node

import (
	"math/rand"
	"testing"
)

// TestDecodeAllocs gates the pool's miss path: on a little-endian host,
// decoding an aligned page buffer allocates nothing, because the buffer
// becomes the image.
func TestDecodeAllocs(t *testing.T) {
	if !littleEndian {
		t.Skip("a big-endian host copies every page into a fresh image")
	}
	c := Codec{Dims: 2}
	n := randNode(rand.New(rand.NewSource(9)), 0, 0, 20)
	buf, err := c.Marshal(n, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, err := c.Decode(buf, n.ID); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Decode of an aligned page allocates %g objects, want 0", avg)
	}
}
