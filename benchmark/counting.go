package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"segidx/internal/page"
	"segidx/internal/store"
)

// countingStore decorates a store.Store: every call is forwarded
// unchanged, counted, and — when a tracer is attached — wrapped in a span,
// which is how the traced run sees the store layer from outside the
// engine. It also remembers which pages are live so the node-codec probe
// can sample real pages and mem_query can report bytes held.
type countingStore struct {
	inner store.Store
	tr    *tracer

	reads, writes atomic.Int64

	mu   sync.Mutex
	live map[page.ID]int // page -> allocated size
}

func newCountingStore(inner store.Store, tr *tracer) *countingStore {
	return &countingStore{inner: inner, tr: tr, live: make(map[page.ID]int)}
}

func (c *countingStore) Allocate(size int) (page.ID, error) {
	id, err := c.inner.Allocate(size)
	if err == nil {
		c.mu.Lock()
		c.live[id] = size
		c.mu.Unlock()
	}
	return id, err
}

func (c *countingStore) Write(id page.ID, data []byte) error {
	s := c.tr.begin("store.write")
	err := c.inner.Write(id, data)
	c.tr.end(s)
	c.writes.Add(1)
	return err
}

func (c *countingStore) Read(id page.ID) ([]byte, error) {
	s := c.tr.begin("store.read")
	buf, err := c.inner.Read(id)
	c.tr.end(s)
	c.reads.Add(1)
	return buf, err
}

func (c *countingStore) Free(id page.ID) error {
	err := c.inner.Free(id)
	if err == nil {
		c.mu.Lock()
		delete(c.live, id)
		c.mu.Unlock()
	}
	return err
}

func (c *countingStore) PageSize(id page.ID) (int, error) { return c.inner.PageSize(id) }
func (c *countingStore) Len() int                         { return c.inner.Len() }
func (c *countingStore) Close() error                     { return c.inner.Close() }

// Commit forwards to a transactional inner store (the engine finds
// store.Committer by type assertion, so the decorator must expose it) and
// is a no-op over a plain one, exactly as if the engine had seen the inner
// store directly.
func (c *countingStore) Commit() error {
	cm, ok := c.inner.(store.Committer)
	if !ok {
		return nil
	}
	s := c.tr.begin("store.commit")
	err := cm.Commit()
	c.tr.end(s)
	return err
}

// livePages returns the live page IDs ascending and their total bytes.
func (c *countingStore) livePages() (ids []page.ID, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids = make([]page.ID, 0, len(c.live))
	for id, sz := range c.live {
		ids = append(ids, id)
		bytes += int64(sz)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, bytes
}

// countingFS decorates a store.FS so writes and fsyncs are counted at the
// file level, below the WAL — the only place write amplification and
// flushes per commit can be seen without editing the store.
type countingFS struct {
	inner store.FS
	tr    *tracer

	writeBytes, walBytes atomic.Int64 // all files / files ending in store.WALSuffix
	syncs                atomic.Int64
}

func (c *countingFS) OpenFile(name string) (store.File, error) {
	f, err := c.inner.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: strings.HasSuffix(name, store.WALSuffix)}, nil
}

func (c *countingFS) Remove(name string) error { return c.inner.Remove(name) }

// countingFile forwards reads, Truncate, Size and Close through the
// embedded File and counts writes and fsyncs.
type countingFile struct {
	store.File
	fs  *countingFS
	wal bool
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writeBytes.Add(int64(n))
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	s := f.fs.tr.begin("store.fsync")
	err := f.File.Sync()
	f.fs.tr.end(s)
	f.fs.syncs.Add(1)
	return err
}
