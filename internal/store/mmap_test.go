//go:build linux

package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func openOSFile(t *testing.T, path string) *osFile {
	t.Helper()
	f, err := OS.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return f.(*osFile)
}

// TestOSFileMatchesPread runs a seeded random sequence of writes, reads,
// growth past the mapping, truncates that shrink and grow, and reads past
// the end through osFile, and checks every ReadAt's count, error and bytes
// against a pread on a second handle of the same file.
func TestOSFileMatchesPread(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f := openOSFile(t, path)
	ref, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	const maxSize = 3 << 20
	rng := rand.New(rand.NewSource(1))
	maps, lastLen := 0, 0 // mappings made, and the last one's length
	for step := 0; step < 4000; step++ {
		size := f.size.Load()
		switch op := rng.Intn(10); {
		case op < 3:
			off := rng.Int63n(size + 4096)
			if rng.Intn(10) == 0 {
				off = size + rng.Int63n(1<<20) // leave a hole, grow past the mapping
			}
			buf := make([]byte, 1+rng.Intn(8192))
			rng.Read(buf)
			if off+int64(len(buf)) > maxSize {
				continue
			}
			if n, err := f.WriteAt(buf, off); n != len(buf) || err != nil {
				t.Fatalf("step %d: WriteAt(%d bytes, %d) = %d, %v", step, len(buf), off, n, err)
			}
		case op == 3:
			to := rng.Int63n(size + 1) // shrink
			if rng.Intn(2) == 0 {
				to = size + rng.Int63n(64<<10) // grow, zero-filled
			}
			if err := f.Truncate(to); err != nil {
				t.Fatalf("step %d: Truncate(%d): %v", step, to, err)
			}
		default:
			off := rng.Int63n(size + 8192) // some cross or start past the end
			if rng.Intn(50) == 0 {
				off = -1
			}
			got := make([]byte, rng.Intn(8192))
			want := make([]byte, len(got))
			n, err := f.ReadAt(got, off)
			wn, werr := ref.ReadAt(want, off)
			if n != wn || (err == nil) != (werr == nil) || errors.Is(err, io.EOF) != errors.Is(werr, io.EOF) ||
				!bytes.Equal(got[:n], want[:wn]) {
				t.Fatalf("step %d: ReadAt(%d bytes, %d) of a %d-byte file = %d, %v; pread = %d, %v",
					step, len(got), off, size, n, err, wn, werr)
			}
		}
		if l := len(f.data); l != lastLen {
			maps, lastLen = maps+1, l
		}
	}
	if maps < 3 {
		t.Fatalf("the file was mapped %d times; the sequence must grow it past the mapping at least twice", maps)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("ReadAt after Close succeeded")
	}
}

// TestOSFileReadersDuringRemaps has readers copying already written
// chunks while a writer grows the file through several remaps; every read
// must see the chunk's bytes.
func TestOSFileReadersDuringRemaps(t *testing.T) {
	f := openOSFile(t, filepath.Join(t.TempDir(), "f"))
	defer f.Close()
	const chunk, chunks, readers = 64 << 10, 72, 4
	var written, reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 4096)
			for {
				c := written.Load()
				if c == chunks {
					return
				}
				if c == 0 {
					runtime.Gosched()
					continue
				}
				i := rng.Int63n(c)
				off := i*chunk + rng.Int63n(chunk-int64(len(buf)))
				if n, err := f.ReadAt(buf, off); n != len(buf) || err != nil {
					t.Errorf("ReadAt(%d) = %d, %v", off, n, err)
					return
				}
				if want := byte(i + 1); buf[0] != want || buf[len(buf)-1] != want || bytes.Count(buf, []byte{want}) != len(buf) {
					t.Errorf("ReadAt(%d) in chunk %d read %#x..., want %#x", off, i, buf[0], want)
					return
				}
				reads.Add(1)
				runtime.Gosched() // let the writer run on a small machine
			}
		}(int64(r))
	}
	maps, lastLen := 0, 0
	for i := int64(0); i < chunks; i++ {
		if n, err := f.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, chunk), i*chunk); n != chunk || err != nil {
			t.Errorf("WriteAt chunk %d = %d, %v", i, n, err)
			break
		}
		written.Add(1)
		// Let the readers copy a few pages before the file grows again.
		for goal := reads.Load() + readers; i+1 < chunks && reads.Load() < goal && !t.Failed(); {
			runtime.Gosched()
		}
		f.mu.RLock()
		if l := len(f.data); l != lastLen {
			maps, lastLen = maps+1, l
		}
		f.mu.RUnlock()
	}
	written.Store(chunks) // stops the readers
	wg.Wait()
	if maps < 3 {
		t.Fatalf("the file was mapped %d times while growing to %d bytes, want at least 3", maps, chunks*chunk)
	}
}
