package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// File is the random-access file-handle surface the durable stores are
// written against. *os.File satisfies it via the osFile adapter; the
// fault-injection filesystem used by crash tests provides a simulated
// implementation with the same semantics (including short writes and
// post-power-cut failures).
//
// On linux the osFile adapter serves ReadAt by copying out of a read-only
// mapping of the file; writes, Truncate and Sync are the plain system
// calls, and a read returns what pread would.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Truncate changes the file size; extending zero-fills.
	Truncate(size int64) error
	// Size reports the current file length in bytes.
	Size() (int64, error)
	// Sync flushes written data to stable storage. Data not synced may be
	// lost, reordered, or partially applied by a crash.
	Sync() error
	Close() error
}

// FS opens the files a store needs. Implementations: OS (the real
// filesystem) and faultstore.Disk (deterministic crash simulation).
type FS interface {
	// OpenFile opens name read-write, creating it if absent.
	OpenFile(name string) (File, error)
	// Remove deletes name; removing a missing file is not an error.
	Remove(name string) error
}

// OS is the real-filesystem FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", name, err)
	}
	info, err := f.Stat()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("store: stat %s: %w", name, err), f.Close())
	}
	of := &osFile{File: f}
	of.size.Store(info.Size())
	return of, nil
}

func (osFS) Remove(name string) error {
	err := os.Remove(name)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// osFile adapts *os.File to the File interface. A read inside the file's
// known length copies from a read-only MAP_SHARED mapping of the file
// instead of calling pread: a cold page read is then a memory copy, not a
// system call. Everything else is the plain system call: writes go
// through pwrite and fsync and never through the mapping, so the
// durability protocol and the crash points do not change, and the buffer
// pool, not the kernel, still decides which pages stay resident.
//
// The known length is the file's size at open, raised by every WriteAt
// and set by Truncate; the mapping never serves a byte past it. The first
// read inside it maps max(2 × length, 1 MiB) bytes, and a read past the
// mapping's end maps again at that size, so a growing file is remapped a
// logarithmic number of times. A read that crosses the known length, or
// any read once mapping has failed or the file is closed, is a pread.
//
// The mapping is built on linux only, where the unified page cache makes
// it see every pwrite at once; elsewhere mmap fails and every read is a
// pread. A fault while copying (SIGBUS: an I/O error, or the file cut
// shorter behind the store's back) is returned as an error rather than
// crashing the process. A file cut from outside within the last OS page
// it still has reads zeros past its new end there, where pread would
// report a short read.
type osFile struct {
	*os.File
	size  atomic.Int64 // known length
	noMap atomic.Bool  // mapping failed, or the file is closed: pread only

	// mu is held for reading while a read copies from data or a write
	// raises size, and for writing by Truncate, a remap and Close.
	mu   sync.RWMutex
	data []byte // read-only mapping of the file; nil until the first read
}

// ReadAt copies from the mapping when it covers the whole range, mapping
// or remapping the file once if it does not, and falls back to pread.
func (f *osFile) ReadAt(p []byte, off int64) (int, error) {
	if n, ok, err := f.readMapped(p, off); ok {
		return n, err
	}
	if f.remap(off, len(p)) {
		if n, ok, err := f.readMapped(p, off); ok {
			return n, err
		}
	}
	return f.File.ReadAt(p, off)
}

// within reports whether [off, off+n) is non-empty and inside the known
// length.
func (f *osFile) within(off int64, n int) bool {
	return off >= 0 && n > 0 && int64(n) <= f.size.Load()-off
}

// readMapped copies p from the mapping at off. ok is false, and nothing
// is read, unless the range lies inside both the known length and the
// mapping.
func (f *osFile) readMapped(p []byte, off int64) (n int, ok bool, err error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if !f.within(off, len(p)) || off+int64(len(p)) > int64(len(f.data)) {
		return 0, false, nil
	}
	n, err = copyFaultable(p, f.data[off:])
	if err != nil {
		err = fmt.Errorf("store: read %s at %d: %w", f.Name(), off, err)
	}
	return n, true, err
}

// copyFaultable copies src into dst, turning a memory fault on src into an
// error.
func copyFaultable(dst, src []byte) (n int, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fault on the mapped file: %v", r)
		}
	}()
	return copy(dst, src), nil
}

// remap maps the file again so the mapping covers [off, off+n), which
// must lie inside the known length. It reports false, leaving the read to
// pread, when the range does not or the file cannot be mapped.
func (f *osFile) remap(off int64, n int) bool {
	if f.noMap.Load() || !f.within(off, n) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.noMap.Load() || !f.within(off, n) {
		return false
	}
	if off+int64(n) <= int64(len(f.data)) {
		return true // another reader remapped first
	}
	osPage := int64(os.Getpagesize())
	length := (max(2*f.size.Load(), 1<<20) + osPage - 1) / osPage * osPage
	data, err := mmap(f.File, length)
	if err != nil {
		f.noMap.Store(true)
		return false
	}
	if f.data != nil {
		_ = munmap(f.data) // fails only on a range that is not mapped
	}
	f.data = data
	return true
}

// WriteAt writes through pwrite and raises the known length to cover what
// it wrote.
func (f *osFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.File.WriteAt(p, off)
	end := off + int64(n)
	for n > 0 {
		cur := f.size.Load()
		if end <= cur || f.size.CompareAndSwap(cur, end) {
			break
		}
	}
	return n, err
}

// Truncate sets the file's size, and its known length with it.
func (f *osFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.size.Store(size)
	return nil
}

func (f *osFile) Size() (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Close unmaps the file and closes it. Later reads are preads on a closed
// file, which fail.
func (f *osFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noMap.Store(true)
	var err error
	if f.data != nil {
		err = munmap(f.data)
		f.data = nil
	}
	return errors.Join(err, f.File.Close())
}
