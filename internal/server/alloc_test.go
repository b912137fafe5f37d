//go:build !race

// The race detector instruments allocations and defeats the measurement,
// so this file is excluded from -race builds.

package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardWriter is a ResponseWriter that keeps only the status, so an
// allocation count sees the server's own work.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// TestHandlerAllocs gates the allocations of a cache-hit /stab and a
// cache-miss /search through Handler(). The request, its body and the
// writer are reused, so the counts are the server's: request decoding,
// cache, engine and encoding. With encoding/json writing the replies they
// were 20 and 48 (go1.24); the miss was 39 while a one-query batch still
// pinned a forest snapshot and ran the fan-out.
func TestHandlerAllocs(t *testing.T) {
	const (
		maxHitStab    = 16
		maxMissSearch = 33
	)
	s, _ := newTestServer(t, Config{CacheEntries: 4})
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	body := bytes.NewReader(nil)
	rc := io.NopCloser(body)
	req := httptest.NewRequest(http.MethodPost, "/stab", rc)
	serve := func(path string, b []byte) {
		body.Reset(b)
		req.URL.Path, req.Body = path, rc
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("%s %s: status %d", path, b, w.code)
		}
	}

	stab := []byte(`{"point": [7, 7]}`)
	serve("/stab", stab)
	n := testing.AllocsPerRun(100, func() { serve("/stab", stab) })
	t.Logf("cache-hit /stab: %.0f allocs", n)
	if n > maxHitStab {
		t.Errorf("cache-hit /stab: %.0f allocs, want <= %d", n, maxHitStab)
	}

	// Distinct rects, so every search misses; the full cache evicts one
	// entry per store.
	searches := make([][]byte, 120)
	for i := range searches {
		searches[i] = []byte(fmt.Sprintf(`{"rect": {"min": [0, 0], "max": [%d, 20]}}`, 20+i))
	}
	next := 0
	search := func() {
		serve("/search", searches[next])
		next++
	}
	for i := 0; i < 8; i++ {
		search()
	}
	n = testing.AllocsPerRun(100, search)
	t.Logf("cache-miss /search: %.0f allocs", n)
	if n > maxMissSearch {
		t.Errorf("cache-miss /search: %.0f allocs, want <= %d", n, maxMissSearch)
	}
}
