package node

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/page"
)

// fuzzByteReader doles out bytes from the fuzz input, returning zeros once
// exhausted, so every input decodes to some deterministic node shape.
type fuzzByteReader struct {
	data []byte
	pos  int
}

func (r *fuzzByteReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzByteReader) uint16() uint16 {
	return uint16(r.byte()) | uint16(r.byte())<<8
}

// coord maps two input bytes onto a finite coordinate in [0, 6553.5].
func (r *fuzzByteReader) coord() float64 {
	return float64(r.uint16()) / 10
}

func (r *fuzzByteReader) rect(dims int) geom.Rect {
	rect := geom.Rect{Min: make([]float64, dims), Max: make([]float64, dims)}
	for d := 0; d < dims; d++ {
		a, b := r.coord(), r.coord()
		if a > b {
			a, b = b, a
		}
		rect.Min[d], rect.Max[d] = a, b
	}
	return rect
}

// buildFuzzNode derives a structurally valid node from the byte stream:
// bounded entry counts, ordered finite rectangles, and a region only when
// the flag byte says so.
func buildFuzzNode(r *fuzzByteReader, dims int) *Node {
	n := &Node{
		ID:    page.ID(r.uint16()),
		Level: int(r.byte() % 4),
	}
	if r.byte()%2 == 1 {
		n.Region = r.rect(dims)
	} else {
		n.Region = geom.EmptyRect(dims)
	}
	nb := int(r.byte() % 8)
	if n.Level == 0 {
		nb = 0 // leaves carry no branches
	}
	nr := int(r.byte() % 8)
	for i := 0; i < nb; i++ {
		n.Branches = append(n.Branches, Branch{
			Rect:  r.rect(dims),
			Child: page.ID(r.uint16()),
		})
	}
	for i := 0; i < nr; i++ {
		rec := Record{Rect: r.rect(dims), ID: RecordID(r.uint16())}
		if n.Level > 0 {
			rec.Span = page.ID(r.uint16())
		}
		n.Records = append(n.Records, rec)
	}
	return n
}

// FuzzNodeCodec exercises the page codec from both directions. Arbitrary
// bytes must never panic Unmarshal (corrupt pages surface as errors) and
// must decode the same from an unaligned copy as in place, and a
// structured node derived from the same bytes must round-trip through
// Marshal/Unmarshal with identical fields and a byte-identical re-encoding.
func FuzzNodeCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x49, 0x53})                   // magic only
	f.Add(bytes.Repeat([]byte{0xff}, 128))      // saturated counts
	f.Add(bytes.Repeat([]byte{0x00}, 128))      // zeroed page
	f.Add([]byte{7, 0, 2, 1, 1, 9, 3, 4, 5, 6}) // small structured seed
	// A genuine encoded page as a seed: one leaf record.
	{
		c := Codec{Dims: 2}
		n := &Node{ID: 3, Level: 0, Region: geom.EmptyRect(2)}
		n.Records = append(n.Records, Record{Rect: geom.Rect2(1, 2, 3, 4), ID: 7})
		if buf, err := c.Marshal(n, 256); err == nil {
			f.Add(buf)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := Codec{Dims: 2}

		// Direction 1: hostile bytes. Unmarshal must return a node or an
		// error, never panic, for any claimed page ID.
		var want page.ID = 1
		if len(data) >= 16 {
			want = page.ID(binary.LittleEndian.Uint64(data[8:16]))
		}
		if n, err := c.Unmarshal(data, want); err == nil {
			// Whatever decodes must re-encode: the decoder's validation
			// (valid rects, counts within the buffer) is exactly what
			// Marshal needs.
			if _, err := c.Marshal(n, len(data)); err != nil {
				t.Fatalf("decoded node does not re-encode into its own page size: %v", err)
			}
		}
		// Whatever decodes in place decodes bit-identically from an
		// unaligned copy, through the copying path; neither writes to
		// its buffer.
		orig := bytes.Clone(data)
		if m, _, err := c.Decode(data, want); err == nil {
			u := unalignedCopy(orig)
			mu, _, err := c.Decode(u, want)
			if err != nil {
				t.Fatalf("an unaligned copy does not decode: %v", err)
			}
			if !sameBits(m, mu) {
				t.Fatal("the unaligned copy decodes to a different image")
			}
			if !bytes.Equal(u, orig) {
				t.Fatal("Decode wrote to an unaligned buffer")
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("Decode wrote to its buffer")
		}
		if _, err := c.Unmarshal(data, 0); err == nil && want != 0 && len(data) >= 16 {
			t.Fatal("page claiming a nonzero ID also decoded as page 0")
		}

		// Direction 2: structured round-trip.
		r := &fuzzByteReader{data: data}
		n := buildFuzzNode(r, c.Dims)
		pageBytes := c.UsedBytes(n) + int(r.byte()%64)
		buf, err := c.Marshal(n, pageBytes)
		if err != nil {
			t.Fatalf("Marshal of structurally valid node failed: %v", err)
		}
		if len(buf) != pageBytes {
			t.Fatalf("Marshal returned %d bytes, want %d", len(buf), pageBytes)
		}
		got, err := c.Unmarshal(buf, n.ID)
		if err != nil {
			t.Fatalf("Unmarshal of freshly marshalled node failed: %v", err)
		}
		if got.ID != n.ID || got.Level != n.Level {
			t.Fatalf("round-trip header mismatch: got %v@%d, want %v@%d", got.ID, got.Level, n.ID, n.Level)
		}
		if got.HasRegion() != n.HasRegion() {
			t.Fatalf("round-trip region flag mismatch: got %v, want %v", got.HasRegion(), n.HasRegion())
		}
		if n.HasRegion() && !got.Region.Equal(n.Region) {
			t.Fatalf("round-trip region %v, want %v", got.Region, n.Region)
		}
		if len(got.Branches) != len(n.Branches) || len(got.Records) != len(n.Records) {
			t.Fatalf("round-trip entry counts %d/%d, want %d/%d",
				len(got.Branches), len(got.Records), len(n.Branches), len(n.Records))
		}
		for i := range n.Branches {
			if !reflect.DeepEqual(got.Branches[i], n.Branches[i]) {
				t.Fatalf("branch %d round-trip %+v, want %+v", i, got.Branches[i], n.Branches[i])
			}
		}
		for i := range n.Records {
			if !reflect.DeepEqual(got.Records[i], n.Records[i]) {
				t.Fatalf("record %d round-trip %+v, want %+v", i, got.Records[i], n.Records[i])
			}
		}

		// The decoded node must re-encode byte-identically: the layout has
		// a single canonical form (padding is zeroed).
		again, err := c.Marshal(got, pageBytes)
		if err != nil {
			t.Fatalf("re-Marshal failed: %v", err)
		}
		if !bytes.Equal(buf, again) {
			t.Fatal("re-encoding a decoded node changed the page image")
		}
	})
}
