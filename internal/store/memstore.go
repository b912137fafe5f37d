package store

import (
	"sync"
	"sync/atomic"

	"segidx/internal/page"
)

// MemStore is an in-memory Store. It is the default backend for experiments
// and benchmarks, where the cost metric is logical node accesses rather than
// disk time.
type MemStore struct {
	mu     sync.RWMutex
	pages  map[page.ID][]byte
	next   page.ID
	closed bool

	// failReads / failWrites inject errors after N more operations when
	// set to a positive countdown; used by failure-injection tests. Reads
	// share mu, so theirs counts down atomically: the one Read that takes
	// it to zero fails.
	failReads  atomic.Int64
	failWrites int
	injected   error
}

// NewMemStore creates an empty in-memory page store.
func NewMemStore() *MemStore {
	return &MemStore{pages: make(map[page.ID][]byte), next: 1}
}

// Allocate reserves a zeroed page of the given size.
func (m *MemStore) Allocate(size int) (page.ID, error) {
	if size <= 0 {
		return page.Nil, sizeMismatch(page.Nil, size, size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return page.Nil, ErrClosed
	}
	id := m.next
	m.next++
	m.pages[id] = make([]byte, size)
	return id, nil
}

// Write replaces the page contents.
func (m *MemStore) Write(id page.ID, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.failWrites > 0 {
		m.failWrites--
		if m.failWrites == 0 {
			return m.injected
		}
	}
	buf, ok := m.pages[id]
	if !ok {
		return ErrNotFound
	}
	if len(data) != len(buf) {
		return sizeMismatch(id, len(buf), len(data))
	}
	copy(buf, data)
	return nil
}

// Read returns a copy of the page contents, in a buffer from the spares
// (Recycle).
func (m *MemStore) Read(id page.ID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.failReads.Load() > 0 && m.failReads.Add(-1) == 0 {
		return nil, m.injected
	}
	buf, ok := m.pages[id]
	if !ok {
		return nil, ErrNotFound
	}
	out := newBuffer(len(buf))
	copy(out, buf)
	return out, nil
}

// Free releases the page.
func (m *MemStore) Free(id page.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.pages[id]; !ok {
		return ErrNotFound
	}
	delete(m.pages, id)
	return nil
}

// PageSize reports the allocated size of the page.
func (m *MemStore) PageSize(id page.ID) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, ErrClosed
	}
	buf, ok := m.pages[id]
	if !ok {
		return 0, ErrNotFound
	}
	return len(buf), nil
}

// Len reports the number of live pages.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Close marks the store closed.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	return nil
}

// InjectReadError makes the Nth subsequent Read fail with err (N = after).
// Test hook.
func (m *MemStore) InjectReadError(after int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failReads.Store(int64(after))
	m.injected = err
}

// InjectWriteError makes the Nth subsequent Write fail with err.
// Test hook.
func (m *MemStore) InjectWriteError(after int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWrites = after
	m.injected = err
}
