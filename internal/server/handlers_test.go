package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"segidx"
)

// newTestServer builds a small in-memory SR-Tree with a few known records
// behind a Server configured with a tiny body limit so the oversized-body
// cases stay cheap.
func newTestServer(t *testing.T, cfg Config) (*Server, *segidx.Index) {
	t.Helper()
	idx, err := segidx.NewSRTree(segidx.WithDims(2))
	if err != nil {
		t.Fatalf("NewSRTree: %v", err)
	}
	t.Cleanup(func() { idx.Close() })
	for i, r := range []segidx.Rect{
		segidx.Box(0, 0, 10, 10),
		segidx.Box(5, 5, 15, 15),
		segidx.Box(100, 100, 110, 110),
	} {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	return New(idx, cfg), idx
}

// do issues one request against the handler and returns the recorder.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// errBody decodes the error body, failing the test on a malformed one.
func errBody(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %v (body %q)", err, rec.Body.String())
	}
	if e.Error == "" {
		t.Fatalf("error body has empty error field: %q", rec.Body.String())
	}
	return e.Error
}

// handlerCase is one row of the handler table.
type handlerCase struct {
	name       string
	method     string
	path       string
	body       string
	wantStatus int
	// setup, when set, prepares the fresh index before the request.
	setup func(t *testing.T, idx *segidx.Index)
	// wantError is matched exactly when the message is ours, by
	// prefix (trailing "*") when part of it comes from the stdlib.
	wantError string
	// check runs extra assertions on a 200 body.
	check func(t *testing.T, body []byte)
}

// handlerMaxBody is the body limit of the handler table's servers.
const handlerMaxBody = 1 << 10

// handlerCases is the handler table: every endpoint through the request
// classes valid request, malformed JSON, wrong method, out-of-range
// dimensions, oversized body. Each row runs against a fresh
// newTestServer.
func handlerCases() []handlerCase {
	// longNum is a valid JSON number longer than the body limit, so the
	// decoder hits MaxBytesReader's cap mid-token rather than a syntax
	// error.
	longNum := "0." + strings.Repeat("1", handlerMaxBody)
	big := `{"rect": {"min": [` + longNum + `, 0], "max": [1, 1]}}`

	nineDims := `[0,0,0,0,0,0,0,0,0]`
	return []handlerCase{
		// ---- /search ----
		{
			name: "search valid single rect", method: "POST", path: "/search",
			body:       `{"rect": {"min": [0, 0], "max": [20, 20]}}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp queryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if len(resp.Results) != 1 {
					t.Fatalf("got %d result lists, want 1", len(resp.Results))
				}
				var entries []entryJSON
				if err := json.Unmarshal(resp.Results[0], &entries); err != nil {
					t.Fatalf("unmarshal entries: %v", err)
				}
				if len(entries) != 2 {
					t.Fatalf("got %d entries, want 2 (ids 1 and 2)", len(entries))
				}
			},
		},
		{
			name: "search valid multi rect", method: "POST", path: "/search",
			body:       `{"rects": [{"min": [0, 0], "max": [1, 1]}, {"min": [99, 99], "max": [120, 120]}]}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp queryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if len(resp.Results) != 2 {
					t.Fatalf("got %d result lists, want 2", len(resp.Results))
				}
			},
		},
		{
			name: "search malformed JSON", method: "POST", path: "/search",
			body: `{"rect": {`, wantStatus: 400, wantError: "malformed JSON body: *",
		},
		{
			name: "search unknown field", method: "POST", path: "/search",
			body: `{"rectangle": {"min": [0,0], "max": [1,1]}}`, wantStatus: 400,
			wantError: "malformed JSON body: *",
		},
		{
			name: "search trailing garbage", method: "POST", path: "/search",
			body:       `{"rect": {"min": [0,0], "max": [1,1]}} {"x": 1}`,
			wantStatus: 400, wantError: "trailing data after JSON body",
		},
		{
			name: "search wrong method", method: "GET", path: "/search",
			wantStatus: 405, wantError: "method GET not allowed; use POST",
		},
		{
			name: "search both rect and rects", method: "POST", path: "/search",
			body:       `{"rect": {"min": [0,0], "max": [1,1]}, "rects": [{"min": [0,0], "max": [1,1]}]}`,
			wantStatus: 400, wantError: `body needs exactly one of "rect" or "rects"`,
		},
		{
			name: "search neither rect nor rects", method: "POST", path: "/search",
			body: `{}`, wantStatus: 400, wantError: `body needs exactly one of "rect" or "rects"`,
		},
		{
			name: "search too many dimensions", method: "POST", path: "/search",
			body:       `{"rect": {"min": ` + nineDims + `, "max": ` + nineDims + `}}`,
			wantStatus: 400, wantError: "rect has 9 dimensions, max 8",
		},
		{
			name: "search dims mismatch with index", method: "POST", path: "/search",
			body:       `{"rect": {"min": [0,0,0], "max": [1,1,1]}}`,
			wantStatus: 400, wantError: "*", // engine ErrDims text
		},
		{
			name: "search min/max length mismatch", method: "POST", path: "/search",
			body:       `{"rect": {"min": [0,0], "max": [1,1,1]}}`,
			wantStatus: 400, wantError: "rect min has 2 dimensions, max has 3",
		},
		{
			name: "search inverted rect", method: "POST", path: "/search",
			body:       `{"rect": {"min": [5,5], "max": [1,1]}}`,
			wantStatus: 400, wantError: "invalid rect: *",
		},
		{
			name: "search oversized body", method: "POST", path: "/search",
			body: big, wantStatus: 413, wantError: "body exceeds 1024 bytes",
		},

		// ---- /stab ----
		{
			name: "stab valid", method: "POST", path: "/stab",
			body:       `{"point": [7, 7]}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp queryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				var entries []entryJSON
				if err := json.Unmarshal(resp.Results[0], &entries); err != nil {
					t.Fatalf("unmarshal entries: %v", err)
				}
				if len(entries) != 2 {
					t.Fatalf("stab(7,7) got %d entries, want 2", len(entries))
				}
			},
		},
		{
			name: "stab valid multi", method: "POST", path: "/stab",
			body:       `{"points": [[7, 7], [105, 105]]}`,
			wantStatus: 200,
		},
		{
			name: "stab malformed JSON", method: "POST", path: "/stab",
			body: `[1, 2`, wantStatus: 400, wantError: "malformed JSON body: *",
		},
		{
			name: "stab wrong method", method: "PUT", path: "/stab",
			wantStatus: 405, wantError: "method PUT not allowed; use POST",
		},
		{
			name: "stab empty point", method: "POST", path: "/stab",
			body: `{"point": []}`, wantStatus: 400, wantError: "point 0 is empty",
		},
		{
			name: "stab too many dimensions", method: "POST", path: "/stab",
			body:       `{"point": ` + nineDims + `}`,
			wantStatus: 400, wantError: "point 0 has 9 dimensions, max 8",
		},
		{
			name: "stab dims mismatch with index", method: "POST", path: "/stab",
			body: `{"point": [1, 2, 3]}`, wantStatus: 400, wantError: "*",
		},
		{
			name: "stab oversized body", method: "POST", path: "/stab",
			body:       `{"point": [` + longNum + `, 0]}`,
			wantStatus: 413, wantError: "body exceeds 1024 bytes",
		},

		// ---- /count ----
		{
			name: "count valid", method: "POST", path: "/count",
			body:       `{"rect": {"min": [0, 0], "max": [200, 200]}}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp countResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				var n int
				if err := json.Unmarshal(resp.Counts[0], &n); err != nil {
					t.Fatalf("unmarshal count: %v", err)
				}
				if n != 3 {
					t.Fatalf("count = %d, want 3", n)
				}
			},
		},
		{
			name: "count malformed JSON", method: "POST", path: "/count",
			body: `nope`, wantStatus: 400, wantError: "malformed JSON body: *",
		},
		{
			name: "count wrong method", method: "DELETE", path: "/count",
			wantStatus: 405, wantError: "method DELETE not allowed; use POST",
		},
		{
			name: "count too many dimensions", method: "POST", path: "/count",
			body:       `{"rect": {"min": ` + nineDims + `, "max": ` + nineDims + `}}`,
			wantStatus: 400, wantError: "rect has 9 dimensions, max 8",
		},
		{
			name: "count oversized body", method: "POST", path: "/count",
			body: big, wantStatus: 413, wantError: "body exceeds 1024 bytes",
		},

		// ---- /insert ----
		{
			name: "insert valid", method: "POST", path: "/insert",
			body:       `{"id": 99, "rect": {"min": [50, 50], "max": [60, 60]}}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp mutationResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				// Epoch is the index's MVCC commit epoch: 3 seed
				// inserts plus this one.
				if resp.Applied != 1 || resp.Len != 4 || resp.Epoch != 4 {
					t.Fatalf("insert response = %+v, want applied 1, len 4, epoch 4", resp)
				}
			},
		},
		{
			// Every candidate's area enlargement overflows to +Inf, so
			// the leaf split this insert triggers compares NaN
			// differences; it once indexed its candidates at -1 and
			// panicked the handler.
			name: "insert overflowing split", method: "POST", path: "/insert",
			setup: func(t *testing.T, idx *segidx.Index) {
				for i := 1; i <= 17; i++ {
					if err := idx.Insert(segidx.Box(-1e300, -float64(i)*1e298, 1e300, 1e300), segidx.RecordID(1000+i)); err != nil {
						t.Fatal(err)
					}
				}
			},
			body:       `{"id": 1018, "rect": {"min": [-1e300, -1.8e299], "max": [1e300, 1e300]}}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp mutationResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if resp.Applied != 1 || resp.Len != 21 {
					t.Fatalf("insert response = %+v, want applied 1, len 21", resp)
				}
			},
		},
		{
			name: "insert malformed JSON", method: "POST", path: "/insert",
			body: `{"id": }`, wantStatus: 400, wantError: "malformed JSON body: *",
		},
		{
			name: "insert wrong method", method: "GET", path: "/insert",
			wantStatus: 405, wantError: "method GET not allowed; use POST",
		},
		{
			name: "insert zero id", method: "POST", path: "/insert",
			body:       `{"id": 0, "rect": {"min": [0,0], "max": [1,1]}}`,
			wantStatus: 400, wantError: "record needs a nonzero id",
		},
		{
			name: "insert missing rect", method: "POST", path: "/insert",
			body: `{"id": 7}`, wantStatus: 400, wantError: "record needs a rect",
		},
		{
			name: "insert too many dimensions", method: "POST", path: "/insert",
			body:       `{"id": 7, "rect": {"min": ` + nineDims + `, "max": ` + nineDims + `}}`,
			wantStatus: 400, wantError: "rect has 9 dimensions, max 8",
		},
		{
			name: "insert dims mismatch with index", method: "POST", path: "/insert",
			body:       `{"id": 7, "rect": {"min": [0], "max": [1]}}`,
			wantStatus: 400, wantError: "*",
		},
		{
			name: "insert oversized body", method: "POST", path: "/insert",
			body:       `{"id": 7, "rect": {"min": [` + longNum + `, 0], "max": [1, 1]}}`,
			wantStatus: 413, wantError: "body exceeds 1024 bytes",
		},

		// ---- /delete ----
		{
			name: "delete valid", method: "POST", path: "/delete",
			body:       `{"id": 1, "hint": {"min": [0, 0], "max": [10, 10]}}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp mutationResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if resp.Applied != 1 || resp.Len != 2 {
					t.Fatalf("delete response = %+v, want applied 1, len 2", resp)
				}
			},
		},
		{
			name: "delete absent id", method: "POST", path: "/delete",
			body:       `{"id": 12345, "hint": {"min": [0, 0], "max": [10, 10]}}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp mutationResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if resp.Applied != 0 || resp.Len != 3 {
					t.Fatalf("delete response = %+v, want applied 0, len 3", resp)
				}
			},
		},
		{
			name: "delete malformed JSON", method: "POST", path: "/delete",
			body: `{{`, wantStatus: 400, wantError: "malformed JSON body: *",
		},
		{
			name: "delete wrong method", method: "GET", path: "/delete",
			wantStatus: 405, wantError: "method GET not allowed; use POST",
		},
		{
			name: "delete zero id", method: "POST", path: "/delete",
			body:       `{"id": 0, "hint": {"min": [0,0], "max": [1,1]}}`,
			wantStatus: 400, wantError: "delete needs a nonzero id",
		},
		{
			name: "delete missing hint", method: "POST", path: "/delete",
			body:       `{"id": 1}`,
			wantStatus: 400, wantError: "delete needs a hint rect covering the inserted rect",
		},
		{
			name: "delete too many dimensions", method: "POST", path: "/delete",
			body:       `{"id": 1, "hint": {"min": ` + nineDims + `, "max": ` + nineDims + `}}`,
			wantStatus: 400, wantError: "rect has 9 dimensions, max 8",
		},
		{
			name: "delete oversized body", method: "POST", path: "/delete",
			body:       `{"id": 1, "hint": {"min": [` + longNum + `, 0], "max": [1, 1]}}`,
			wantStatus: 413, wantError: "body exceeds 1024 bytes",
		},

		// ---- /bulkload ----
		{
			name: "bulkload valid", method: "POST", path: "/bulkload",
			body:       `{"records": [{"id": 50, "rect": {"min": [1,1], "max": [2,2]}}, {"id": 51, "rect": {"min": [3,3], "max": [4,4]}}]}`,
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var resp mutationResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if resp.Applied != 2 || resp.Len != 5 {
					t.Fatalf("bulkload response = %+v, want applied 2, len 5", resp)
				}
			},
		},
		{
			name: "bulkload malformed JSON", method: "POST", path: "/bulkload",
			body: `{"records": [}`, wantStatus: 400, wantError: "malformed JSON body: *",
		},
		{
			name: "bulkload wrong method", method: "GET", path: "/bulkload",
			wantStatus: 405, wantError: "method GET not allowed; use POST",
		},
		{
			name: "bulkload empty records", method: "POST", path: "/bulkload",
			body: `{"records": []}`, wantStatus: 400, wantError: `body needs a non-empty "records" array`,
		},
		{
			name: "bulkload too many dimensions", method: "POST", path: "/bulkload",
			body:       `{"records": [{"id": 50, "rect": {"min": ` + nineDims + `, "max": ` + nineDims + `}}]}`,
			wantStatus: 400, wantError: "rect has 9 dimensions, max 8",
		},
		{
			name: "bulkload zero id", method: "POST", path: "/bulkload",
			body:       `{"records": [{"id": 0, "rect": {"min": [0,0], "max": [1,1]}}]}`,
			wantStatus: 400, wantError: "record needs a nonzero id",
		},
		{
			name: "bulkload oversized body", method: "POST", path: "/bulkload",
			body:       `{"records": [{"id": 50, "rect": {"min": [` + longNum + `, 0], "max": [1, 1]}}]}`,
			wantStatus: 413, wantError: "body exceeds 1024 bytes",
		},

		// ---- /metrics and /healthz ----
		{
			name: "metrics valid", method: "GET", path: "/metrics",
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var m Metrics
				if err := json.Unmarshal(body, &m); err != nil {
					t.Fatalf("unmarshal metrics: %v", err)
				}
				if m.Engine.Len != 3 || m.Engine.Shards != 1 {
					t.Fatalf("metrics engine = %+v, want len 3, shards 1", m.Engine)
				}
			},
		},
		{
			name: "metrics wrong method", method: "POST", path: "/metrics",
			wantStatus: 405, wantError: "method POST not allowed; use GET",
		},
		{
			name: "healthz valid", method: "GET", path: "/healthz",
			wantStatus: 200,
			check: func(t *testing.T, body []byte) {
				var h healthResponse
				if err := json.Unmarshal(body, &h); err != nil {
					t.Fatalf("unmarshal healthz: %v", err)
				}
				if h.Status != "ok" || h.Len != 3 {
					t.Fatalf("healthz = %+v, want ok/3", h)
				}
			},
		},
		{
			name: "unknown path", method: "GET", path: "/nope",
			wantStatus: 404,
		},
	}
}

// TestHandlerTable runs every row of handlerCases: status, error text,
// Allow and Content-Type headers, and the row's own check of a 200 body.
func TestHandlerTable(t *testing.T) {
	for _, tc := range handlerCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, idx := newTestServer(t, Config{MaxBodyBytes: handlerMaxBody})
			if tc.setup != nil {
				tc.setup(t, idx)
			}
			rec := do(t, s, tc.method, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantStatus == 405 {
				if allow := rec.Header().Get("Allow"); allow == "" {
					t.Errorf("405 response missing Allow header")
				}
			}
			switch {
			case tc.wantStatus >= 400 && tc.wantStatus != 404:
				got := errBody(t, rec)
				want := tc.wantError
				switch {
				case want == "*":
					// any non-empty message (asserted by errBody)
				case strings.HasSuffix(want, "*"):
					if !strings.HasPrefix(got, strings.TrimSuffix(want, "*")) {
						t.Errorf("error = %q, want prefix %q", got, strings.TrimSuffix(want, "*"))
					}
				default:
					if got != want {
						t.Errorf("error = %q, want %q", got, want)
					}
				}
			case tc.check != nil:
				tc.check(t, rec.Body.Bytes())
			}
			if tc.wantStatus != 404 { // the mux's own 404 is text/plain
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type = %q, want application/json", ct)
				}
			}
		})
	}
}

// TestMetricsCounters verifies that request, error, cache, and latency
// counters move as traffic flows.
func TestMetricsCounters(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	// Two identical searches: the second must be a cache hit.
	for i := 0; i < 2; i++ {
		rec := do(t, s, "POST", "/search", `{"rect": {"min": [0,0], "max": [20,20]}}`)
		if rec.Code != 200 {
			t.Fatalf("search %d: status %d", i, rec.Code)
		}
	}
	// One error.
	if rec := do(t, s, "POST", "/search", `bad`); rec.Code != 400 {
		t.Fatalf("bad search: status %d", rec.Code)
	}

	var m Metrics
	rec := do(t, s, "GET", "/metrics", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("unmarshal metrics: %v", err)
	}
	ep := m.Endpoints["search"]
	if ep.Requests != 3 || ep.Errors != 1 {
		t.Fatalf("search endpoint = %+v, want 3 requests, 1 error", ep)
	}
	if ep.Latency.Count != 3 || ep.Latency.P50US == 0 {
		t.Fatalf("search latency = %+v, want count 3 and nonzero p50", ep.Latency)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache = %+v, want 1 hit, 1 miss", m.Cache)
	}
	if m.Cache.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", m.Cache.HitRate)
	}
	if m.Engine.Stats.Searches == 0 {
		t.Fatalf("engine search counter did not move: %+v", m.Engine.Stats)
	}
}

// TestCachedResponseByteIdentical asserts a cache hit returns exactly the
// bytes a fresh query produced.
func TestCachedResponseByteIdentical(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := `{"rect": {"min": [0,0], "max": [20,20]}}`
	first := do(t, s, "POST", "/search", body)
	second := do(t, s, "POST", "/search", body)
	var a, b queryResponse
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.Cached != 0 || b.Cached != 1 {
		t.Fatalf("cached flags = %d, %d; want 0 then 1", a.Cached, b.Cached)
	}
	if string(a.Results[0]) != string(b.Results[0]) {
		t.Fatalf("cached result differs from fresh result:\n%s\n%s", a.Results[0], b.Results[0])
	}
}
