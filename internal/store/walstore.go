package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"segidx/internal/page"
)

// Committer is implemented by stores whose mutations become durable only
// at explicit commit points. Between commits, reads observe the pending
// mutations; a crash discards them atomically.
type Committer interface {
	// Commit makes every mutation since the previous Commit durable as one
	// atomic unit: after a crash at any byte offset, recovery observes
	// either all of the batch or none of it.
	Commit() error
}

// WALStore makes a FileStore crash-consistent. Allocate, Write, and Free
// are buffered in memory; Commit writes the whole batch as a checksummed
// image at the start of the write-ahead log, fsyncs it, applies the batch
// to the FileStore in place, and fsyncs that. Opening a WALStore replays
// the log: a complete, checksum-valid batch is finished (idempotently — a
// crash mid-apply re-applies), anything less is discarded, so the store
// always recovers to exactly a commit boundary.
//
// The log holds at most one batch and is never emptied: after a commit it
// still holds that commit's batch, and reopening re-applies it over the
// state it produced, which changes nothing. The next commit overwrites it
// in place, so recovery never has to order batches.
//
// Log layout (little endian):
//
//	batch:  [magic u32 "SGWB"][record count u32] records... trailer
//	record: [op u8][page id u64][n u32][n data bytes — writes only]
//	        op 1 = alloc (n is the page size), 2 = write, 3 = free
//	trailer:[magic u32 "SGWC"][crc32 u32 over everything before the trailer]
//
// A torn batch cannot masquerade as a complete one: the record count fixes
// how many records must parse, and the trailer checksum covers them all.
type WALStore struct {
	mu    sync.Mutex
	inner *FileStore
	log   File

	// Pending mutations since the last commit. An id allocated and freed
	// in the same batch cancels out of all three maps.
	allocs map[page.ID]int    // pending new pages: id -> size
	writes map[page.ID][]byte // pending contents (pending or existing pages)
	freed  map[page.ID]bool   // existing pages pending release

	nextID page.ID
	logLen int64 // log file size: the last batch plus any stale tail
	closed bool
	sick   error // sticky failure; non-nil after a failed commit or sync
	closeE error
}

const (
	walBatchMagic  = 0x53475742 // "SGWB"
	walCommitMagic = 0x53475743 // "SGWC"
	walRecHeader   = 1 + 8 + 4
	walOpAlloc     = 1
	walOpWrite     = 2
	walOpFree      = 3

	// walTailSlack bounds the stale tail a batch may leave behind it in
	// the log. Cutting the tail frees file blocks, which on ext4 costs tens
	// of milliseconds where overwriting them costs microseconds, so Commit
	// cuts only a tail past this: once, after a bulk commit.
	walTailSlack = 1 << 20
)

// WALSuffix is appended to the store path to name the write-ahead log.
const WALSuffix = ".wal"

// OpenWALStore opens or creates a crash-consistent store at path on the
// real filesystem. The log lives beside it at path+WALSuffix.
func OpenWALStore(path string) (*WALStore, error) {
	return OpenWALStoreIn(OS, path)
}

// OpenWALStoreIn opens or creates a crash-consistent store named path
// inside fsys, replaying (or discarding) any interrupted commit.
func OpenWALStoreIn(fsys FS, path string) (*WALStore, error) {
	inner, err := OpenFileStoreIn(fsys, path)
	if err != nil {
		return nil, err
	}
	logf, err := fsys.OpenFile(path + WALSuffix)
	if err != nil {
		return nil, errors.Join(err, inner.Close())
	}
	ws := &WALStore{
		inner:  inner,
		log:    logf,
		allocs: make(map[page.ID]int),
		writes: make(map[page.ID][]byte),
		freed:  make(map[page.ID]bool),
	}
	if err := ws.replay(); err != nil {
		return nil, errors.Join(err, logf.Close(), inner.Close())
	}
	ws.nextID = inner.NextID()
	return ws, nil
}

// replay finishes the batch found in the log at open — usually the last
// commit, already applied, which re-applying leaves unchanged — or
// discards a torn one, leaving it for the next commit to overwrite.
func (ws *WALStore) replay() error {
	size, err := ws.log.Size()
	if err != nil {
		return fmt.Errorf("store: wal size: %w", err)
	}
	ws.logLen = size
	buf := make([]byte, size)
	if _, err := ws.log.ReadAt(buf, 0); err != nil && err != io.EOF {
		return fmt.Errorf("store: wal read: %w", err)
	}
	recs, ok := parseBatch(buf)
	if !ok {
		// Interrupted before the commit record was durable: the batch
		// never happened.
		return nil
	}
	if err := ws.applyLocked(recs); err != nil {
		return err
	}
	return ws.inner.Sync()
}

// walRecord is one logged mutation.
type walRecord struct {
	op   byte
	id   page.ID
	size int    // alloc page size
	data []byte // write contents
}

// parseBatch decodes the batch at the start of a log image; bytes after
// its trailer (a longer earlier batch's tail) are ignored. ok is false
// when the image does not start with a complete, checksum-valid batch.
func parseBatch(buf []byte) ([]walRecord, bool) {
	if len(buf) < 8 || binary.LittleEndian.Uint32(buf[0:4]) != walBatchMagic {
		return nil, false
	}
	count := int(binary.LittleEndian.Uint32(buf[4:8]))
	off := 8
	recs := make([]walRecord, 0, count)
	for i := 0; i < count; i++ {
		if off+walRecHeader > len(buf) {
			return nil, false
		}
		op := buf[off]
		id := page.ID(binary.LittleEndian.Uint64(buf[off+1 : off+9]))
		n := int(binary.LittleEndian.Uint32(buf[off+9 : off+13]))
		off += walRecHeader
		rec := walRecord{op: op, id: id}
		switch op {
		case walOpAlloc:
			if n <= 0 || n > maxPageSize {
				return nil, false
			}
			rec.size = n
		case walOpWrite:
			if n < 0 || off+n > len(buf) {
				return nil, false
			}
			rec.data = buf[off : off+n]
			off += n
		case walOpFree:
			if n != 0 {
				return nil, false
			}
		default:
			return nil, false
		}
		recs = append(recs, rec)
	}
	if off+8 > len(buf) {
		return nil, false
	}
	if binary.LittleEndian.Uint32(buf[off:off+4]) != walCommitMagic {
		return nil, false
	}
	if binary.LittleEndian.Uint32(buf[off+4:off+8]) != crc32.ChecksumIEEE(buf[:off]) {
		return nil, false
	}
	return recs, true
}

// applyLocked applies a parsed batch to the inner store using its
// idempotent primitives, so re-applying after a crash mid-apply converges
// on the same state.
func (ws *WALStore) applyLocked(recs []walRecord) error {
	for _, r := range recs {
		var err error
		switch r.op {
		case walOpAlloc:
			err = ws.inner.ApplyAlloc(r.id, r.size)
		case walOpWrite:
			err = ws.inner.Write(r.id, r.data)
		case walOpFree:
			err = ws.inner.ApplyFree(r.id)
		}
		if err != nil {
			return fmt.Errorf("store: wal apply op %d on %v: %w", r.op, r.id, err)
		}
	}
	return nil
}

// usableLocked rejects operations on a closed or broken store. The caller
// must hold ws.mu.
func (ws *WALStore) usableLocked() error {
	if ws.sick != nil {
		return ws.sick
	}
	if ws.closed {
		return ErrClosed
	}
	return nil
}

// Allocate reserves a page ID. The page exists only in the pending batch
// until Commit.
func (ws *WALStore) Allocate(size int) (page.ID, error) {
	if size <= 0 {
		return page.Nil, sizeMismatch(page.Nil, size, size)
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.usableLocked(); err != nil {
		return page.Nil, err
	}
	id := ws.nextID
	ws.nextID++
	ws.allocs[id] = size
	return id, nil
}

// pageSizeLocked resolves a live page's size across pending state and the
// inner store. The caller must hold ws.mu.
func (ws *WALStore) pageSizeLocked(id page.ID) (int, error) {
	if ws.freed[id] {
		return 0, ErrNotFound
	}
	if size, ok := ws.allocs[id]; ok {
		return size, nil
	}
	return ws.inner.PageSize(id)
}

// Write buffers new page contents for the next commit.
func (ws *WALStore) Write(id page.ID, data []byte) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.usableLocked(); err != nil {
		return err
	}
	size, err := ws.pageSizeLocked(id)
	if err != nil {
		return err
	}
	if len(data) != size {
		return sizeMismatch(id, size, len(data))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	ws.writes[id] = buf
	return nil
}

// Read returns the page contents as the next commit would persist them.
func (ws *WALStore) Read(id page.ID) ([]byte, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.usableLocked(); err != nil {
		return nil, err
	}
	if ws.freed[id] {
		return nil, ErrNotFound
	}
	if buf, ok := ws.writes[id]; ok {
		out := make([]byte, len(buf))
		copy(out, buf)
		return out, nil
	}
	if size, ok := ws.allocs[id]; ok {
		return make([]byte, size), nil
	}
	return ws.inner.Read(id)
}

// Free buffers the release of a page. Freeing a page allocated in the same
// batch cancels the allocation entirely.
func (ws *WALStore) Free(id page.ID) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.usableLocked(); err != nil {
		return err
	}
	if ws.freed[id] {
		return ErrNotFound
	}
	if _, ok := ws.allocs[id]; ok {
		delete(ws.allocs, id)
		delete(ws.writes, id)
		return nil
	}
	if _, err := ws.inner.PageSize(id); err != nil {
		return err
	}
	delete(ws.writes, id)
	ws.freed[id] = true
	return nil
}

// PageSize reports the allocated size of a live page.
func (ws *WALStore) PageSize(id page.ID) (int, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.usableLocked(); err != nil {
		return 0, err
	}
	return ws.pageSizeLocked(id)
}

// Len reports the number of live pages, counting pending allocations and
// discounting pending frees.
func (ws *WALStore) Len() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.inner.Len() + len(ws.allocs) - len(ws.freed)
}

// Pending reports the number of buffered mutations awaiting Commit.
func (ws *WALStore) Pending() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.allocs) + len(ws.writes) + len(ws.freed)
}

// pendingRecordsLocked lists the pending mutations in canonical order
// (allocs, then writes, then frees, each sorted by page ID), so the on-disk
// commit image is deterministic. The caller must hold ws.mu.
func (ws *WALStore) pendingRecordsLocked() []walRecord {
	recs := make([]walRecord, 0, len(ws.allocs)+len(ws.writes)+len(ws.freed))
	for _, id := range sortedIDs(ws.allocs) {
		recs = append(recs, walRecord{op: walOpAlloc, id: id, size: ws.allocs[id]})
	}
	for _, id := range sortedIDs(ws.writes) {
		recs = append(recs, walRecord{op: walOpWrite, id: id, data: ws.writes[id]})
	}
	for _, id := range sortedIDs(ws.freed) {
		recs = append(recs, walRecord{op: walOpFree, id: id})
	}
	return recs
}

// encodeBatch serializes records as one log image.
func encodeBatch(recs []walRecord) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, walBatchMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = append(buf, r.op)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.id))
		// n is an alloc's page size, a write's data length, a free's 0.
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.size+len(r.data)))
		buf = append(buf, r.data...)
	}
	crc := crc32.ChecksumIEEE(buf)
	buf = binary.LittleEndian.AppendUint32(buf, walCommitMagic)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

func sortedIDs[V any](m map[page.ID]V) []page.ID {
	ids := make([]page.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Commit makes the pending batch durable: log, sync, apply in place,
// sync. Any failure on that path permanently breaks the store — the
// durable image is still exactly a commit boundary (recoverable by
// reopening), but the in-memory state can no longer be trusted to match
// it.
func (ws *WALStore) Commit() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.usableLocked(); err != nil {
		return err
	}
	if len(ws.allocs)+len(ws.writes)+len(ws.freed) == 0 {
		return nil
	}
	fail := func(err error) error {
		ws.sick = fmt.Errorf("%w: %w", ErrBroken, err)
		return ws.sick
	}
	recs := ws.pendingRecordsLocked()
	batch := encodeBatch(recs)
	if _, err := ws.log.WriteAt(batch, 0); err != nil {
		return fail(fmt.Errorf("store: wal write: %w", err))
	}
	n := int64(len(batch))
	if ws.logLen-n > walTailSlack {
		// The tail belongs to the previous batch, which is applied and
		// synced, so losing it (or the cut itself) in a crash is harmless.
		if err := ws.log.Truncate(n); err != nil {
			return fail(fmt.Errorf("store: wal cut: %w", err))
		}
		ws.logLen = n
	}
	ws.logLen = max(ws.logLen, n)
	if err := ws.log.Sync(); err != nil {
		return fail(fmt.Errorf("store: wal sync: %w", err))
	}
	// The batch is durable from here on: even if applying fails, reopening
	// replays the log to completion.
	if err := ws.applyLocked(recs); err != nil {
		return fail(err)
	}
	if err := ws.inner.Sync(); err != nil {
		return fail(err)
	}
	ws.allocs = make(map[page.ID]int)
	ws.writes = make(map[page.ID][]byte)
	ws.freed = make(map[page.ID]bool)
	return nil
}

// Close discards any uncommitted batch (rollback) and closes the log and
// the inner store. Close is idempotent: repeated calls return the first
// call's result.
func (ws *WALStore) Close() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return ws.closeE
	}
	ws.closed = true
	ws.closeE = errors.Join(ws.log.Close(), ws.inner.Close())
	if ws.sick != nil {
		ws.closeE = errors.Join(ws.sick, ws.closeE)
	}
	return ws.closeE
}
