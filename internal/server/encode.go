package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"

	"segidx"
)

// The hot response bodies (/search, /stab, /count and the mutations) are
// appended byte by byte into a pooled buffer: encoding/json's reflection,
// and its re-validation of every cached fragment as a json.RawMessage,
// cost more than the index search they report. The bytes are exactly what
// json.NewEncoder writes for the equivalent structs, trailing newline
// included; TestResponsesMatchEncodingJSON and FuzzAppendJSONFloat hold
// them to that. Error, /metrics and /healthz bodies stay on encoding/json
// (writeJSON), as does all request decoding (DESIGN.md §10).

// respBufs pools response buffers.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledResp caps the capacity of a buffer returned to respBufs, so one
// huge /search reply cannot pin its heap for the life of the pool.
const maxPooledResp = 64 << 10

// jsonContentType is the Content-Type header value of every appended
// body, shared so a reply does not allocate it. Header values are never
// written in place.
var jsonContentType = []string{"application/json"}

// sendJSON writes b as a 200 application/json body in one Write with
// Content-Length set, then hands the buffer back to respBufs through bp.
// It returns the status written.
func sendJSON(w http.ResponseWriter, bp *[]byte, b []byte) int {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(b))}
	w.WriteHeader(http.StatusOK)
	// A failed write cannot be reported to the client; the connection
	// error is the client's signal.
	_, _ = w.Write(b)
	releaseBuf(bp, b)
	return http.StatusOK
}

// releaseBuf returns b, the grown form of *bp, to respBufs unless it is
// over maxPooledResp.
func releaseBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledResp {
		*bp = b[:0]
		respBufs.Put(bp)
	}
}

// serveCachedQueries answers queries through the result cache and writes
// the 200 body {"<field>":[…],"cached":n,"epoch":e}, whose list holds one
// fragment per query in request order; it returns the status written. key
// is a query's cache key, run answers the queries that missed (in request
// order) and appendOne encodes one answer. Each fresh fragment is stored
// in the cache as it is written.
//
// The commit epoch is snapshotted once, before any engine work: results
// computed concurrently with a mutation are stored under the pre-commit
// epoch, so the commit's bump invalidates them (see the cache doc
// comment). The engine bumps the epoch when the mutation commits — before
// the mutation request is even acknowledged — which only widens the safe
// margin.
func serveCachedQueries[Q, A any](
	ctx context.Context, s *Server, w http.ResponseWriter, field string, queries []Q,
	key func(Q) string,
	run func(context.Context, []Q) ([]A, error),
	appendOne func([]byte, A) ([]byte, error),
) int {
	epoch := s.idx.CommitEpoch()
	// The arrays keep a request of a few queries off the heap. A cached
	// fragment is never empty, so a nil hit marks a miss.
	var keyArr [4]string
	var hitArr [4][]byte
	keys, hits := keyArr[:0], hitArr[:0]
	nHit := 0
	for _, q := range queries {
		k := key(q)
		val, _ := s.cache.get(k, epoch)
		keys, hits = append(keys, k), append(hits, val)
		if val != nil {
			nHit++
		}
	}
	var fresh []A
	if nHit < len(queries) {
		missed := queries
		if nHit > 0 {
			missed = make([]Q, 0, len(queries)-nHit)
			for i, q := range queries {
				if hits[i] == nil {
					missed = append(missed, q)
				}
			}
		}
		var err error
		if fresh, err = run(ctx, missed); err != nil {
			return writeError(w, err)
		}
	}

	bp := respBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"`...)
	b = append(b, field...)
	b = append(b, `":[`...)
	j := 0
	for i, hit := range hits {
		if i > 0 {
			b = append(b, ',')
		}
		if hit != nil {
			b = append(b, hit...)
			continue
		}
		start := len(b)
		var err error
		if b, err = appendOne(b, fresh[j]); err != nil {
			releaseBuf(bp, b)
			return writeError(w, err)
		}
		j++
		s.cache.put(keys[i], epoch, b[start:])
	}
	b = append(b, `],"cached":`...)
	b = strconv.AppendInt(b, int64(nHit), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, "}\n"...)
	return sendJSON(w, bp, b)
}

// writeMutation writes the 200 body of /insert, /delete and /bulkload:
// {"applied":n,"len":l,"epoch":e}. Applied is 1 for insert, the
// records-removed count for delete, and the records-loaded count for
// bulkload. It returns the status written.
func (s *Server) writeMutation(w http.ResponseWriter, applied int) int {
	bp := respBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"applied":`...)
	b = strconv.AppendInt(b, int64(applied), 10)
	b = append(b, `,"len":`...)
	b = strconv.AppendInt(b, int64(s.idx.Len()), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, s.idx.CommitEpoch(), 10)
	b = append(b, "}\n"...)
	return sendJSON(w, bp, b)
}

// appendEntries appends one query's results as the list
// [{"id":…,"min":[…],"max":[…]},…]: the fragment the result cache holds.
func appendEntries(b []byte, entries []segidx.Entry) ([]byte, error) {
	b = append(b, '[')
	var err error
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(e.ID), 10)
		if b, err = appendRect(b, e.Rect); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendRect appends ,"min":[…],"max":[…]. A max coordinate with the bits
// of its min, as in every dimension but one of a line segment, copies the
// min's digits instead of formatting them again.
func appendRect(b []byte, r segidx.Rect) ([]byte, error) {
	var spans [MaxDims][2]int // where each min coordinate's digits sit in b
	var err error
	b = append(b, `,"min":[`...)
	for d, v := range r.Min {
		if d > 0 {
			b = append(b, ',')
		}
		start := len(b)
		if b, err = appendFloat(b, v); err != nil {
			return b, err
		}
		if d < MaxDims {
			spans[d] = [2]int{start, len(b)}
		}
	}
	b = append(b, `],"max":[`...)
	for d, v := range r.Max {
		if d > 0 {
			b = append(b, ',')
		}
		if d < MaxDims && d < len(r.Min) && math.Float64bits(v) == math.Float64bits(r.Min[d]) {
			b = append(b, b[spans[d][0]:spans[d][1]]...)
		} else if b, err = appendFloat(b, v); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendCount appends one /count answer.
func appendCount(b []byte, n int) ([]byte, error) {
	return strconv.AppendInt(b, int64(n), 10), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation in 'f' format, switching to 'e' outside [1e-6, 1e21),
// with a single-digit negative exponent written without its leading zero
// (e-09 → e-9). NaN and ±Inf have no JSON form; they are refused with the
// error json.Marshal returns, so the reply is the same 500.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
