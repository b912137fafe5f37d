// Package faultstore is a deterministic fault-injection filesystem for
// crash-consistency testing. It implements store.FS over in-memory files
// and can inject I/O errors, short writes, and a simulated power cut after
// the Nth mutating operation, with the crashing write torn at any byte
// offset — so every byte-offset crash point of a store protocol is
// reachable from tests.
//
// Each file tracks two states: the synced image (what the last Sync made
// durable) and a journal of mutations since. A power cut freezes the disk;
// CrashImage then materializes the surviving bytes under an explicit
// policy — unsynced mutations all lost, all kept, a seeded subset kept
// (modeling the kernel reordering page writeback), or all kept except a
// write-ahead log's — as a fresh Disk the
// test reopens its store on. Everything is deterministic: the same
// operation sequence, crash point, policy, and seed produce the same
// image.
package faultstore

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"segidx/internal/store"
)

// ErrPowerCut is returned by every file operation after the simulated
// power cut fires.
var ErrPowerCut = errors.New("faultstore: power cut")

// CrashPolicy selects which unsynced mutations survive a crash.
type CrashPolicy int

const (
	// KeepNone loses every mutation since the last Sync: the most
	// conservative durable image.
	KeepNone CrashPolicy = iota
	// KeepAll retains every unsynced mutation (the crashing write still
	// torn): the disk happened to write everything back before dying.
	KeepAll
	// KeepSubset retains a deterministic seed-selected subset of unsynced
	// writes, modeling reordered writeback; truncations are kept in order.
	KeepSubset
	// LoseLog loses every unsynced mutation of a file named with
	// store.WALSuffix and keeps every other file's (the crashing write
	// still torn): the page file reached the disk, the log did not. Any
	// page write issued before the log's sync shows under it.
	LoseLog
)

func (p CrashPolicy) String() string {
	switch p {
	case KeepNone:
		return "keep-none"
	case KeepAll:
		return "keep-all"
	case KeepSubset:
		return "keep-subset"
	case LoseLog:
		return "lose-log"
	default:
		return fmt.Sprintf("CrashPolicy(%d)", int(p))
	}
}

// journalOp is one unsynced mutation.
type journalOp struct {
	truncate bool
	off      int64 // write offset, or truncate target size
	data     []byte
}

// file is one simulated file: the synced image plus the unsynced journal.
// cur is the journal applied — what reads observe.
type file struct {
	synced  []byte
	journal []journalOp
	cur     []byte
}

// Disk is a deterministic in-memory filesystem with fault injection. The
// zero value is not usable; use NewDisk. All methods are safe for
// concurrent use, though crash tests are single-goroutine by design.
type Disk struct {
	mu    sync.Mutex
	files map[string]*file

	ops     int // mutating ops (WriteAt, Truncate) performed so far
	crashAt int // fire the power cut on the Nth mutating op; 0 = never
	tear    int // bytes of the crashing write that reach the journal
	crashed bool

	failWriteAt int // one-shot: the Nth mutating op fails with failErr
	failErr     error
	shortAt     int // one-shot: the Nth write is cut to half its bytes
	syncs       int
	failSyncAt  int // one-shot: the Nth Sync fails with failSyncErr
	failSyncErr error
}

// NewDisk creates an empty disk with no faults armed.
func NewDisk() *Disk {
	return &Disk{files: make(map[string]*file)}
}

// SetCrashPoint arms the power cut: the nth mutating operation (1-based)
// applies only tear bytes of its payload (a truncate applies only if
// tear > 0), then every subsequent operation fails with ErrPowerCut.
func (d *Disk) SetCrashPoint(n, tear int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAt = n
	d.tear = tear
}

// FailWrite arms a one-shot write error: the nth mutating operation from
// now fails with err without applying any bytes.
func (d *Disk) FailWrite(n int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failWriteAt = d.ops + n
	d.failErr = err
}

// ShortWrite arms a one-shot short write: the nth mutating operation from
// now applies only half its payload and returns io.ErrShortWrite-style
// failure.
func (d *Disk) ShortWrite(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shortAt = d.ops + n
}

// FailSync arms a one-shot sync error: the nth Sync from now fails with
// err, leaving the journal unsynced.
func (d *Disk) FailSync(n int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failSyncAt = d.syncs + n
	d.failSyncErr = err
}

// Ops reports the number of mutating operations performed so far. Run a
// workload once fault-free to learn the crash-point range.
func (d *Disk) Ops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Crashed reports whether the power cut has fired.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// OpenFile opens or creates a file. Opening never counts as a mutation.
func (d *Disk) OpenFile(name string) (store.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrPowerCut
	}
	f, ok := d.files[name]
	if !ok {
		f = &file{}
		d.files[name] = f
	}
	return &handle{d: d, f: f}, nil
}

// Remove deletes a file; removing a missing file is a no-op.
func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrPowerCut
	}
	delete(d.files, name)
	return nil
}

// CrashImage materializes the durable state as a fresh, fault-free Disk:
// for each file, the synced image plus the journal mutations the policy
// keeps. It may be called whether or not the power cut has fired (calling
// it before models a process kill with no disk loss only under KeepAll).
func (d *Disk) CrashImage(policy CrashPolicy, seed uint64) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := NewDisk()
	for name, f := range d.files {
		data := append([]byte(nil), f.synced...)
		for i, op := range f.journal {
			keep := true
			switch policy {
			case KeepNone:
				keep = false
			case KeepAll:
				keep = true
			case KeepSubset:
				// Truncations model metadata ops the journal orders;
				// data writes survive per a deterministic coin flip.
				keep = op.truncate || subsetBit(seed, i)
			case LoseLog:
				keep = !strings.HasSuffix(name, store.WALSuffix)
			}
			if keep {
				data = applyOp(data, op)
			}
		}
		img.files[name] = &file{
			synced: append([]byte(nil), data...),
			cur:    data,
		}
	}
	return img
}

// subsetBit is a deterministic per-op coin flip (splitmix64 finalizer).
func subsetBit(seed uint64, i int) bool {
	x := seed + uint64(i)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x&1 == 1
}

// applyOp applies one journal mutation to a byte image.
func applyOp(data []byte, op journalOp) []byte {
	if op.truncate {
		size := int(op.off)
		if size <= len(data) {
			return data[:size]
		}
		return append(data, make([]byte, size-len(data))...)
	}
	end := op.off + int64(len(op.data))
	if int64(len(data)) < end {
		data = append(data, make([]byte, end-int64(len(data)))...)
	}
	copy(data[op.off:end], op.data)
	return data
}

// handle is an open file. It implements store.File.
type handle struct {
	d      *Disk
	f      *file
	closed bool
}

func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return 0, ErrPowerCut
	}
	if h.closed {
		return 0, errors.New("faultstore: read on closed file")
	}
	if off < 0 || off >= int64(len(h.f.cur)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.cur[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// mutate runs one counted mutating operation, handling crash and error
// injection. apply is called with the number of payload bytes to apply
// (full on the happy path, torn on the crashing op).
func (h *handle) mutate(payload int, apply func(keep int)) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return 0, ErrPowerCut
	}
	if h.closed {
		return 0, errors.New("faultstore: write on closed file")
	}
	h.d.ops++
	if h.d.failWriteAt > 0 && h.d.ops == h.d.failWriteAt {
		h.d.failWriteAt = 0
		return 0, h.d.failErr
	}
	if h.d.shortAt > 0 && h.d.ops == h.d.shortAt {
		h.d.shortAt = 0
		keep := payload / 2
		apply(keep)
		return keep, fmt.Errorf("faultstore: short write (%d of %d bytes)", keep, payload)
	}
	if h.d.crashAt > 0 && h.d.ops == h.d.crashAt {
		keep := h.d.tear
		if keep > payload {
			keep = payload
		}
		apply(keep)
		h.d.crashed = true
		return 0, ErrPowerCut
	}
	apply(payload)
	return payload, nil
}

func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("faultstore: negative offset")
	}
	return h.mutate(len(p), func(keep int) {
		if keep == 0 {
			return
		}
		op := journalOp{off: off, data: append([]byte(nil), p[:keep]...)}
		h.f.journal = append(h.f.journal, op)
		h.f.cur = applyOp(h.f.cur, op)
	})
}

func (h *handle) Truncate(size int64) error {
	if size < 0 {
		return errors.New("faultstore: negative truncate")
	}
	// A truncate "payload" of 1 makes tear==0 drop it and tear>0 apply it.
	_, err := h.mutate(1, func(keep int) {
		if keep == 0 {
			return
		}
		op := journalOp{truncate: true, off: size}
		h.f.journal = append(h.f.journal, op)
		h.f.cur = applyOp(h.f.cur, op)
	})
	return err
}

func (h *handle) Size() (int64, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return 0, ErrPowerCut
	}
	return int64(len(h.f.cur)), nil
}

func (h *handle) Sync() error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return ErrPowerCut
	}
	if h.closed {
		return errors.New("faultstore: sync on closed file")
	}
	h.d.syncs++
	if h.d.failSyncAt > 0 && h.d.syncs == h.d.failSyncAt {
		h.d.failSyncAt = 0
		return h.d.failSyncErr
	}
	h.f.synced = append([]byte(nil), h.f.cur...)
	h.f.journal = nil
	return nil
}

func (h *handle) Close() error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	h.closed = true
	return nil
}
