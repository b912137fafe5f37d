package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"segidx"
)

// The response structs as encoding/json rendered them before the hot
// bodies were appended by hand. Tests decode replies into them, and
// renderJSON renders the reference bytes from them.

// entryJSON is one search result on the wire.
type entryJSON struct {
	ID  uint64    `json:"id"`
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// queryResponse is the body of /search and /stab.
type queryResponse struct {
	Results []json.RawMessage `json:"results"`
	Cached  int               `json:"cached"`
	Epoch   uint64            `json:"epoch"`
}

// countResponse is the body of /count.
type countResponse struct {
	Counts []json.RawMessage `json:"counts"`
	Cached int               `json:"cached"`
	Epoch  uint64            `json:"epoch"`
}

// mutationResponse is the body of /insert, /delete, and /bulkload.
type mutationResponse struct {
	Applied int    `json:"applied"`
	Len     int    `json:"len"`
	Epoch   uint64 `json:"epoch"`
}

// renderJSON renders v as json.NewEncoder writes a response body.
func renderJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// marshalEntriesRef renders one query's results as the cached fragment,
// through encoding/json.
func marshalEntriesRef(t *testing.T, entries []segidx.Entry) json.RawMessage {
	t.Helper()
	out := make([]entryJSON, len(entries))
	for i, e := range entries {
		out[i] = entryJSON{ID: uint64(e.ID), Min: e.Rect.Min, Max: e.Rect.Max}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	return b
}

// referenceRead renders, through encoding/json, the 200 body of the read
// request (path, body) from the engine's own answers at idx's current
// state. seen holds the cache keys earlier requests stored; the reply's
// cached count is the number of this request's keys already in it, and
// the request's keys are added to it.
func referenceRead(t *testing.T, idx *segidx.Index, seen map[string]bool, path, body string) []byte {
	t.Helper()
	ctx := context.Background()
	var keys []string
	var resp any
	switch path {
	case "/search", "/count":
		var req searchRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		rects, err := req.rects()
		if err != nil {
			t.Fatalf("reference rects: %v", err)
		}
		if path == "/count" {
			counts := make([]json.RawMessage, len(rects))
			for i, rc := range rects {
				keys = append(keys, searchKey("count", rc))
				n, err := idx.Count(rc)
				if err != nil {
					t.Fatalf("reference Count: %v", err)
				}
				counts[i], _ = json.Marshal(n)
			}
			resp = &countResponse{Counts: counts}
			break
		}
		batches, err := idx.SearchBatch(ctx, rects)
		if err != nil {
			t.Fatalf("reference SearchBatch: %v", err)
		}
		results := make([]json.RawMessage, len(batches))
		for i, entries := range batches {
			keys = append(keys, searchKey("search", rects[i]))
			results[i] = marshalEntriesRef(t, entries)
		}
		resp = &queryResponse{Results: results}
	case "/stab":
		var req stabRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		points, err := req.points()
		if err != nil {
			t.Fatalf("reference points: %v", err)
		}
		batches, err := idx.StabBatch(ctx, points)
		if err != nil {
			t.Fatalf("reference StabBatch: %v", err)
		}
		results := make([]json.RawMessage, len(batches))
		for i, entries := range batches {
			keys = append(keys, stabKey(points[i]))
			results[i] = marshalEntriesRef(t, entries)
		}
		resp = &queryResponse{Results: results}
	default:
		t.Fatalf("referenceRead: %s is not a read", path)
	}
	cached := 0
	for _, k := range keys {
		if seen[k] {
			cached++
		}
	}
	for _, k := range keys {
		seen[k] = true
	}
	switch r := resp.(type) {
	case *queryResponse:
		r.Cached, r.Epoch = cached, idx.CommitEpoch()
	case *countResponse:
		r.Cached, r.Epoch = cached, idx.CommitEpoch()
	}
	return renderJSON(t, resp)
}

// checkMutationBody decodes a mutation reply, checks its len and epoch
// against idx, and compares it with its encoding/json rendering.
func checkMutationBody(t *testing.T, idx *segidx.Index, body []byte) {
	t.Helper()
	var resp mutationResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("mutation body %q: %v", body, err)
	}
	if resp.Len != idx.Len() || resp.Epoch != idx.CommitEpoch() {
		t.Fatalf("mutation body %q: index has len %d, epoch %d", body, idx.Len(), idx.CommitEpoch())
	}
	if want := renderJSON(t, resp); !bytes.Equal(body, want) {
		t.Fatalf("mutation body differs from encoding/json:\n got %q\nwant %q", body, want)
	}
}

// checkBody asserts a reply is a 200 JSON body equal to want, byte for
// byte, with a matching Content-Length.
func checkBody(t *testing.T, rec *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d (%s)", rec.Code, rec.Body.String())
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("body differs from encoding/json:\n got %q\nwant %q", got, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
		t.Fatalf("Content-Length = %q, body is %d bytes", cl, len(want))
	}
}

// TestResponsesMatchEncodingJSON holds every hot 200 body to the bytes
// json.NewEncoder wrote for the response structs above: the handler
// table's valid rows, fresh and cached plural requests against a
// randomized 3-D index, and empty results.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	t.Run("handler table", func(t *testing.T) {
		for _, tc := range handlerCases() {
			if tc.wantStatus != http.StatusOK || tc.method != http.MethodPost {
				continue
			}
			t.Run(tc.name, func(t *testing.T) {
				s, idx := newTestServer(t, Config{MaxBodyBytes: handlerMaxBody})
				if tc.setup != nil {
					tc.setup(t, idx)
				}
				switch tc.path {
				case "/search", "/stab", "/count":
					seen := map[string]bool{}
					// Twice: a fresh reply, then a cached one.
					for pass := 0; pass < 2; pass++ {
						want := referenceRead(t, idx, seen, tc.path, tc.body)
						checkBody(t, do(t, s, "POST", tc.path, tc.body), want)
					}
				default:
					rec := do(t, s, "POST", tc.path, tc.body)
					if rec.Code != http.StatusOK {
						t.Fatalf("status %d (%s)", rec.Code, rec.Body.String())
					}
					checkMutationBody(t, idx, rec.Body.Bytes())
				}
			})
		}
	})

	t.Run("randomized 3-D", func(t *testing.T) {
		idx, err := segidx.NewSRTree(segidx.WithDims(3), segidx.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		s := New(idx, Config{})
		rng := rand.New(rand.NewPCG(46, 1991))
		// Coordinates across the magnitudes where encoding/json changes
		// format: 'e' below 1e-6 and from 1e21, 'f' between, integers,
		// negatives, signed zeros and subnormals; one extent in four is
		// degenerate, as in a line segment. They stay far enough below
		// MaxFloat64 that a 3-D volume is finite, so splits compare
		// finite enlargements (core's TestSplitInfiniteEnlargements
		// covers the infinite ones).
		scales := []float64{1, 1e5, 1e-7, 1e-300, 1e22, 1e100, 5e-324}
		coord := func() float64 {
			switch rng.IntN(8) {
			case 0:
				return float64(rng.IntN(2000) - 1000)
			case 1:
				return math.Copysign(0, float64(rng.IntN(2)*2-1))
			}
			return (rng.Float64()*2 - 1) * scales[rng.IntN(len(scales))]
		}
		randRect := func() segidx.Rect {
			min, max := make([]float64, 3), make([]float64, 3)
			for d := range min {
				a, b := coord(), coord()
				if rng.IntN(4) == 0 {
					b = a
				}
				min[d], max[d] = math.Min(a, b), math.Max(a, b)
			}
			r, err := segidx.NewRect(min, max)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		recs := make([]segidx.Rect, 600)
		for i := range recs {
			recs[i] = randRect()
			if err := idx.Insert(recs[i], segidx.RecordID(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		rectJSONs := func(n int) string {
			lo := []float64{-math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64}
			hi := []float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}
			parts := make([]string, n)
			for i := range parts {
				mins, maxs := lo, hi // one in four reaches the whole index
				if rng.IntN(4) != 0 {
					r := randRect()
					mins, maxs = r.Min, r.Max
				}
				mn, _ := json.Marshal(mins)
				mx, _ := json.Marshal(maxs)
				parts[i] = fmt.Sprintf(`{"min": %s, "max": %s}`, mn, mx)
			}
			return `{"rects": [` + strings.Join(parts, ", ") + `]}`
		}
		pointsJSON := func(n int) string {
			pts := make([][]float64, n)
			for i := range pts {
				r := recs[rng.IntN(len(recs))]
				pts[i] = []float64{r.Min[0], r.Max[1], r.Min[2]} // on a record's boundary
				if rng.IntN(3) == 0 {
					pts[i] = []float64{coord(), coord(), coord()}
				}
			}
			b, _ := json.Marshal(map[string]any{"points": pts})
			return string(b)
		}

		seen := map[string]bool{}
		var bodies []struct{ path, body string }
		for i := 0; i < 12; i++ {
			n := 1 + rng.IntN(5)
			bodies = append(bodies,
				struct{ path, body string }{"/search", rectJSONs(n)},
				struct{ path, body string }{"/count", rectJSONs(n)},
				struct{ path, body string }{"/stab", pointsJSON(n)})
		}
		// Every request twice, the second round in reverse: fresh, then
		// cached fragments appended into new replies.
		for round := 0; round < 2; round++ {
			for i := range bodies {
				b := bodies[i]
				if round == 1 {
					b = bodies[len(bodies)-1-i]
				}
				want := referenceRead(t, idx, seen, b.path, b.body)
				checkBody(t, do(t, s, "POST", b.path, b.body), want)
			}
		}
		if st := s.cache.stats(); st.Hits == 0 {
			t.Fatalf("no cache hits: %+v", st)
		}
	})

	t.Run("empty results", func(t *testing.T) {
		s, idx := newTestServer(t, Config{})
		seen := map[string]bool{}
		for _, b := range []struct{ path, body string }{
			{"/search", `{"rect": {"min": [500, 500], "max": [600, 600]}}`},
			{"/search", `{"rects": [{"min": [500, 500], "max": [600, 600]}, {"min": [0, 0], "max": [1, 1]}]}`},
			{"/stab", `{"point": [50, 50]}`},
			{"/stab", `{"points": [[50, 50], [7, 7], [-1, -1]]}`},
			{"/count", `{"rect": {"min": [500, 500], "max": [600, 600]}}`},
		} {
			for pass := 0; pass < 2; pass++ {
				want := referenceRead(t, idx, seen, b.path, b.body)
				checkBody(t, do(t, s, "POST", b.path, b.body), want)
			}
		}
		want := `{"results":[[]],"cached":0,"epoch":3}` + "\n"
		if rec := do(t, s, "POST", "/search", `{"rect": {"min": [-9, -9], "max": [-8, -8]}}`); rec.Body.String() != want {
			t.Fatalf("empty /search = %q, want %q", rec.Body.String(), want)
		}
	})
}

// TestInfiniteCoordinateAnswers500 pins the reply to a result with an
// infinite coordinate. geom.NewRect rejects only NaN, so such a record
// can be inserted through the Go API; JSON has no form for it, so a
// /search that hits it answers 500 with a JSON error body, as
// encoding/json's "unsupported value" did, and caches nothing for that
// query. Once the record is deleted the query answers 200.
func TestInfiniteCoordinateAnswers500(t *testing.T) {
	s, idx := newTestServer(t, Config{})
	inf, err := segidx.NewRect([]float64{200, 200}, []float64{210, math.Inf(1)})
	if err != nil {
		t.Fatalf("NewRect with +Inf max: %v", err)
	}
	if err := idx.Insert(inf, 9); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	body := `{"rects": [{"min": [0, 0], "max": [1, 1]}, {"min": [199, 199], "max": [220, 220]}]}`
	rec := do(t, s, "POST", "/search", body)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	if msg := errBody(t, rec); msg != "json: unsupported value: +Inf" {
		t.Fatalf("error = %q", msg)
	}
	if _, ok := s.cache.get(searchKey("search", segidx.Box(199, 199, 220, 220)), s.Epoch()); ok {
		t.Fatalf("the failed query's reply was cached")
	}

	if n, err := idx.Delete(9, inf); err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	rec = do(t, s, "POST", "/search", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("after delete: status %d (%s)", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || string(resp.Results[1]) != "[]" {
		t.Fatalf("after delete: body %q", rec.Body.String())
	}
}

// FuzzAppendJSONFloat holds appendFloat to json.Marshal for every float64
// bit pattern: the same bytes where json.Marshal succeeds, and an error,
// with the same text, where it fails (NaN, ±Inf).
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-9,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.1, 1, 123456789, 73421, 12345.678901234567, 99999.99999999999,
		0.5, 49999.5, 100000,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, wantErr := json.Marshal(v)
		got, err := appendFloat([]byte("x"), v)
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("appendFloat(%v) = %q, json.Marshal fails: %v", v, got, wantErr)
			}
			if err.Error() != wantErr.Error() {
				t.Fatalf("appendFloat(%v) error %q, json.Marshal %q", v, err, wantErr)
			}
		case err != nil:
			t.Fatalf("appendFloat(%v) failed: %v; json.Marshal = %q", v, err, want)
		case string(got) != "x"+string(want):
			t.Fatalf("appendFloat(%v) = %q, json.Marshal %q", v, got[1:], want)
		}
	})
}
