// Package store provides page storage backends for segment indexes: an
// in-memory store for experiments (the paper's metric — node accesses — is
// machine independent) and a single-file store demonstrating durable paged
// layout with variable page sizes, free-list reuse, and crash-tolerant
// recovery by scanning. On linux the real filesystem's files (OS) serve
// reads by copying from a read-only mapping of the file; every write is
// still a pwrite, and every commit an fsync.
package store

import (
	"errors"
	"fmt"

	"segidx/internal/page"
)

// ErrNotFound is returned when a page ID has never been allocated or has
// been freed.
var ErrNotFound = errors.New("store: page not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Store is a page allocator and reader/writer. Pages have fixed individual
// sizes chosen at allocation time (segment indexes allocate larger pages at
// higher tree levels). Implementations must be safe for concurrent use.
//
// Page IDs increase strictly and are never reused: Allocate returns an ID
// above every ID the store has handed out, freed pages included, and a
// reopened store continues above every ID its file records. The buffer
// pool indexes its resident pages by ID in a dense table and relies on
// this. (A WALStore allocation that never reached the file, because its
// batch never committed or freed it again, may be handed out again after
// a reopen: no committed state refers to it.)
type Store interface {
	// Allocate reserves a new page of the given size and returns its ID.
	Allocate(size int) (page.ID, error)
	// Write stores data as the page contents. len(data) must equal the
	// allocated size of the page.
	Write(id page.ID, data []byte) error
	// Read returns the page contents in a slice the store never touches
	// again: the caller owns it. It is fresh or one handed back through
	// Recycle, overwritten whole. The buffer pool keeps it as the page's
	// immutable image (node.Codec.Decode) and recycles it once no reader
	// can hold that image.
	Read(id page.ID) ([]byte, error)
	// Free releases the page. Its space may be reused; its ID is not.
	Free(id page.ID) error
	// PageSize reports the allocated size of a live page.
	PageSize(id page.ID) (int, error)
	// Len reports the number of live pages.
	Len() int
	// Close releases resources. Further operations fail with ErrClosed.
	Close() error
}

func sizeMismatch(id page.ID, want, got int) error {
	return fmt.Errorf("store: %v size mismatch: page is %d bytes, data is %d", id, want, got)
}
