package node

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// unalignedCopy returns a copy of b that starts one byte past an 8-byte
// boundary, so Decode takes its copying path. The backing array is at
// least 16 bytes, which keeps it out of the tiny allocator: its base is
// 8-byte aligned.
func unalignedCopy(b []byte) []byte {
	u := make([]byte, len(b)+16)[1 : 1+len(b)]
	copy(u, b)
	return u
}

// aligned8 reports whether b's backing array starts on an 8-byte boundary.
func aligned8(b []byte) bool { return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 }

// sameBits reports whether two images hold bit-identical words.
func sameBits(a, b Image) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDecodePaths checks both ways Decode reads a page. On a little-endian
// host an aligned buffer is the image itself, its length and capacity the
// used prefix; an unaligned buffer is copied into a bit-identical image.
// Neither path writes to the buffer.
func TestDecodePaths(t *testing.T) {
	c := Codec{Dims: 2}
	n := randNode(rand.New(rand.NewSource(5)), 1, 4, 3)
	buf, err := c.Marshal(n, 1024)
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Clone(buf)
	if !aligned8(buf) {
		t.Fatal("a 1 KiB page buffer is not 8-byte aligned")
	}
	m, reported, err := c.Decode(buf, n.ID)
	if err != nil {
		t.Fatal(err)
	}
	adopted := unsafe.Pointer(unsafe.SliceData(m)) == unsafe.Pointer(unsafe.SliceData(buf))
	if adopted != littleEndian || reported != adopted {
		t.Fatalf("aligned buffer adopted = %v, reported %v, on a host with littleEndian = %v", adopted, reported, littleEndian)
	}
	if adopted {
		if pb := PageBuffer(m, len(buf)); unsafe.SliceData(pb) != unsafe.SliceData(buf) || len(pb) != len(buf) {
			t.Fatal("PageBuffer of the adopted image is not the page buffer")
		}
	}
	if want := c.UsedBytes(n) / 8; len(m) != want || cap(m) != want {
		t.Fatalf("image len %d cap %d, want both %d (the used prefix)", len(m), cap(m), want)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatalf("Decode wrote to an aligned buffer at %s", diffOffsets(buf, orig))
	}

	u := unalignedCopy(orig)
	if aligned8(u) {
		t.Fatal("unalignedCopy returned an aligned buffer")
	}
	mu, reported, err := c.Decode(u, n.ID)
	if err != nil {
		t.Fatal(err)
	}
	if reported || unsafe.Pointer(unsafe.SliceData(mu)) == unsafe.Pointer(unsafe.SliceData(u)) {
		t.Fatal("an unaligned buffer was adopted, not copied")
	}
	if !sameBits(m, mu) {
		t.Fatal("the copied image differs from the adopted one")
	}
	if !bytes.Equal(u, orig) {
		t.Fatalf("Decode wrote to an unaligned buffer at %s", diffOffsets(u, orig))
	}
	if h := c.Headers(mu); !nodesEqual(&h, n) {
		t.Fatalf("Headers of the copied image = %+v, want %+v", h, n)
	}
}
