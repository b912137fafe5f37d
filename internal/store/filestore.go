package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"segidx/internal/page"
)

// ErrBroken is returned by every operation on a FileStore (or WALStore)
// after a failed Sync. A sync failure means the kernel may have dropped
// dirty pages on the floor; continuing to write would silently mix
// durable and lost data, so the store turns itself off instead.
var ErrBroken = errors.New("store: broken after failed sync")

// FileStore is a durable single-file Store.
//
// Layout: the file is a sequence of slots, each
//
//	[magic u32][state u8][check u24][size u32][id u64] + size data bytes
//
// Pages are written in place. Free releases a slot to a per-size free list;
// Allocate reuses a freed slot of exactly the requested size, under a new
// page ID, before extending the file. Opening an existing file rebuilds
// the page table and free lists with a single forward scan, so no separate
// metadata needs to stay consistent with the data (a torn final slot is
// truncated away).
//
// check is a checksum of the header's other fields. Free, and Allocate on
// a freed slot, rewrite a header in place, and a torn rewrite could read as
// a live page under a dead ID, or under an ID spliced from two — maybe
// another live page's. A header failing its check holds no page (a
// WALStore replays the torn operation); check 0 marks an older header.
//
// A bare FileStore offers page-at-a-time durability only: a crash between
// two Writes of one logical update leaves the mix on disk. Wrap it in a
// WALStore for atomic multi-page commits.
type FileStore struct {
	mu     sync.Mutex
	f      File
	pages  map[page.ID]slot
	free   map[int][]int64 // size -> slot offsets
	next   page.ID
	size   int64 // logical end of file
	closed bool
	sick   error // sticky failure; non-nil after a failed Sync
	closeE error // result of the first Close, replayed by later Closes
}

type slot struct {
	off  int64
	size int
}

const (
	slotMagic   = 0x53474958 // "SGIX"
	slotHeader  = 4 + 1 + 3 + 4 + 8
	stateLive   = 1
	stateFree   = 2
	maxPageSize = 1 << 26 // sanity bound when scanning
)

// OpenFileStore opens or creates the file store at path on the real
// filesystem.
func OpenFileStore(path string) (*FileStore, error) {
	return OpenFileStoreIn(OS, path)
}

// OpenFileStoreIn opens or creates the file store named path inside fsys.
// Crash tests pass a fault-injecting filesystem here.
func OpenFileStoreIn(fsys FS, path string) (*FileStore, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, err
	}
	fs := &FileStore{
		f:     f,
		pages: make(map[page.ID]slot),
		free:  make(map[int][]int64),
		next:  1,
	}
	if err := fs.recover(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return fs, nil
}

// recover scans the file to rebuild the page table and free lists.
func (fs *FileStore) recover() error {
	end, err := fs.f.Size()
	if err != nil {
		return fmt.Errorf("store: size: %w", err)
	}
	var off int64
	hdr := make([]byte, slotHeader)
	for off+slotHeader <= end {
		if _, err := fs.f.ReadAt(hdr, off); err != nil {
			return fmt.Errorf("store: recover read at %d: %w", off, err)
		}
		magic := binary.LittleEndian.Uint32(hdr[0:4])
		state := hdr[4]
		check := uint32(hdr[5]) | uint32(hdr[6])<<8 | uint32(hdr[7])<<16
		size := int(binary.LittleEndian.Uint32(hdr[8:12]))
		id := page.ID(binary.LittleEndian.Uint64(hdr[12:20]))
		if magic != slotMagic || size <= 0 || size > maxPageSize {
			break // torn or trailing garbage; truncate here
		}
		if off+slotHeader+int64(size) > end {
			break // torn final slot
		}
		// Even a torn header's ID is retired: it is spliced from real ones.
		if id >= fs.next {
			fs.next = id + 1
		}
		switch {
		case state == stateFree || check != 0 && check != slotCheck(hdr):
			fs.free[size] = append(fs.free[size], off)
		case state == stateLive:
			fs.pages[id] = slot{off: off, size: size}
		default:
			return fmt.Errorf("store: corrupt slot state %d at offset %d", state, off)
		}
		off += slotHeader + int64(size)
	}
	fs.size = off
	return fs.f.Truncate(off)
}

// usableLocked rejects operations on a closed or broken store. The caller
// must hold fs.mu.
func (fs *FileStore) usableLocked() error {
	if fs.sick != nil {
		return fs.sick
	}
	if fs.closed {
		return ErrClosed
	}
	return nil
}

func (fs *FileStore) writeHeader(off int64, state byte, size int, id page.ID) error {
	hdr := make([]byte, slotHeader)
	binary.LittleEndian.PutUint32(hdr[0:4], slotMagic)
	hdr[4] = state
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(size))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(id))
	check := slotCheck(hdr)
	hdr[5], hdr[6], hdr[7] = byte(check), byte(check>>8), byte(check>>16)
	_, err := fs.f.WriteAt(hdr, off)
	return err
}

// slotCheck is a slot header's 24-bit checksum: the CRC-32 of the header
// without its check bytes, never 0, which marks an unchecked header.
func slotCheck(hdr []byte) uint32 {
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:5]), crc32.IEEETable, hdr[8:slotHeader])
	return max(crc&0xFFFFFF, 1)
}

// placeLocked finds a slot for a new page of the given size — reusing a
// freed slot or extending the file — zeroes its body, and writes a live
// header carrying id. The caller must hold fs.mu.
func (fs *FileStore) placeLocked(id page.ID, size int) error {
	var off int64
	reused := false
	if frees := fs.free[size]; len(frees) > 0 {
		off = frees[len(frees)-1]
		fs.free[size] = frees[:len(frees)-1]
		reused = true
	} else {
		off = fs.size
	}
	// Zero the body first so fresh pages read back zeroed whether the slot
	// is reused or newly extended; the header flips to live only after.
	zero := make([]byte, size)
	if _, err := fs.f.WriteAt(zero, off+slotHeader); err != nil {
		if reused {
			fs.free[size] = append(fs.free[size], off)
		}
		return fmt.Errorf("store: zero slot: %w", err)
	}
	if !reused {
		fs.size = off + slotHeader + int64(size)
	}
	if err := fs.writeHeader(off, stateLive, size, id); err != nil {
		return fmt.Errorf("store: slot header: %w", err)
	}
	fs.pages[id] = slot{off: off, size: size}
	return nil
}

// Allocate reserves a page, reusing a freed slot of identical size if one
// exists.
func (fs *FileStore) Allocate(size int) (page.ID, error) {
	if size <= 0 {
		return page.Nil, sizeMismatch(page.Nil, size, size)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.usableLocked(); err != nil {
		return page.Nil, err
	}
	id := fs.next
	if err := fs.placeLocked(id, size); err != nil {
		return page.Nil, err
	}
	fs.next++
	return id, nil
}

// NextID reports the ID the next Allocate will return. WALStore mirrors
// the counter to hand out IDs for allocations it has buffered but not yet
// applied.
func (fs *FileStore) NextID() page.ID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.next
}

// ApplyAlloc materializes an allocation with a caller-chosen ID. It is
// idempotent — re-applying after a crash mid-commit re-zeroes the slot
// body, which is correct because WAL replay re-applies any Write records
// that follow. Used only by WAL replay/commit; regular callers Allocate.
func (fs *FileStore) ApplyAlloc(id page.ID, size int) error {
	if size <= 0 {
		return sizeMismatch(id, size, size)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.usableLocked(); err != nil {
		return err
	}
	if s, ok := fs.pages[id]; ok {
		if s.size != size {
			return sizeMismatch(id, s.size, size)
		}
		// Already placed by an earlier (interrupted) apply; restore the
		// fresh-page contract for the benefit of replayed reads.
		zero := make([]byte, size)
		if _, err := fs.f.WriteAt(zero, s.off+slotHeader); err != nil {
			return fmt.Errorf("store: re-zero slot: %w", err)
		}
	} else if err := fs.placeLocked(id, size); err != nil {
		return err
	}
	if id >= fs.next {
		fs.next = id + 1
	}
	return nil
}

// ApplyFree is the idempotent form of Free used by WAL replay: freeing a
// page that is already gone is a no-op rather than ErrNotFound.
func (fs *FileStore) ApplyFree(id page.ID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.usableLocked(); err != nil {
		return err
	}
	if _, ok := fs.pages[id]; !ok {
		return nil
	}
	return fs.freeLocked(id)
}

// Write replaces the page contents in place.
func (fs *FileStore) Write(id page.ID, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.usableLocked(); err != nil {
		return err
	}
	s, ok := fs.pages[id]
	if !ok {
		return ErrNotFound
	}
	if len(data) != s.size {
		return sizeMismatch(id, s.size, len(data))
	}
	_, err := fs.f.WriteAt(data, s.off+slotHeader)
	return err
}

// Read returns the page contents. A read that comes back short fails
// with an error wrapping io.ErrUnexpectedEOF.
func (fs *FileStore) Read(id page.ID) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.usableLocked(); err != nil {
		return nil, err
	}
	s, ok := fs.pages[id]
	if !ok {
		return nil, ErrNotFound
	}
	buf := make([]byte, s.size)
	if n, err := fs.f.ReadAt(buf, s.off+slotHeader); n < len(buf) {
		// Never hand out a zero-padded page: a file that ends inside a
		// live slot was cut behind the store's back.
		if err == nil || errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("store: read %v: %w", id, err)
	}
	return buf, nil
}

// Free releases the page's slot for reuse by same-size allocations.
func (fs *FileStore) Free(id page.ID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.usableLocked(); err != nil {
		return err
	}
	if _, ok := fs.pages[id]; !ok {
		return ErrNotFound
	}
	return fs.freeLocked(id)
}

// freeLocked marks the page's slot free on disk and in the free lists. The
// free header keeps the page's ID, so a reopen never hands the ID out
// again even when it was the highest allocated. The caller must hold
// fs.mu and have checked the page exists.
func (fs *FileStore) freeLocked(id page.ID) error {
	s := fs.pages[id]
	if err := fs.writeHeader(s.off, stateFree, s.size, id); err != nil {
		return fmt.Errorf("store: free header: %w", err)
	}
	delete(fs.pages, id)
	fs.free[s.size] = append(fs.free[s.size], s.off)
	return nil
}

// PageSize reports the allocated size of the page.
func (fs *FileStore) PageSize(id page.ID) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.usableLocked(); err != nil {
		return 0, err
	}
	s, ok := fs.pages[id]
	if !ok {
		return 0, ErrNotFound
	}
	return s.size, nil
}

// Len reports the number of live pages.
func (fs *FileStore) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.pages)
}

// Sync flushes file contents to stable storage. A failed sync permanently
// breaks the store: every later operation (including Sync and Write)
// returns ErrBroken, because the kernel may have already discarded the
// dirty pages the failed call was meant to persist.
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.usableLocked(); err != nil {
		return err
	}
	return fs.syncLocked()
}

// syncLocked syncs the backing file and latches the sticky failure state.
// The caller must hold fs.mu.
func (fs *FileStore) syncLocked() error {
	if err := fs.f.Sync(); err != nil {
		fs.sick = fmt.Errorf("%w: %v", ErrBroken, err)
		return fs.sick
	}
	return nil
}

// Close syncs and closes the backing file. Close is idempotent: repeated
// calls return the first call's result without touching the file again.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return fs.closeE
	}
	fs.closed = true
	if fs.sick != nil {
		// Already broken: release the descriptor but report the breakage.
		fs.closeE = errors.Join(fs.sick, fs.f.Close())
		return fs.closeE
	}
	if err := fs.syncLocked(); err != nil {
		fs.closeE = errors.Join(err, fs.f.Close())
		return fs.closeE
	}
	fs.closeE = fs.f.Close()
	return fs.closeE
}
