package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"segidx"
)

// MaxDims bounds the dimensionality accepted over the wire. It matches the
// engine's supported range (WithDims documents 1 through 8); rejecting
// higher values at the decoder keeps hostile requests from building huge
// coordinate slices before the engine sees them.
const MaxDims = 8

// maxBulkRecords bounds one /bulkload request. Larger loads are split by
// the client; the bound keeps a single request from holding the decoder's
// memory hostage.
const maxBulkRecords = 100_000

// httpError is an error carrying the HTTP status it should produce.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// rectJSON is the wire form of a rectangle.
type rectJSON struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// toRect validates the wire rectangle and builds the engine form.
func (r *rectJSON) toRect() (segidx.Rect, error) {
	if len(r.Min) == 0 || len(r.Max) == 0 {
		return segidx.Rect{}, badRequest("rect needs non-empty min and max")
	}
	if len(r.Min) != len(r.Max) {
		return segidx.Rect{}, badRequest("rect min has %d dimensions, max has %d", len(r.Min), len(r.Max))
	}
	if len(r.Min) > MaxDims {
		return segidx.Rect{}, badRequest("rect has %d dimensions, max %d", len(r.Min), MaxDims)
	}
	rect, err := segidx.NewRect(r.Min, r.Max)
	if err != nil {
		return segidx.Rect{}, badRequest("invalid rect: %v", err)
	}
	return rect, nil
}

// searchRequest is the body of /search and /count: one rect or several.
type searchRequest struct {
	Rect  *rectJSON  `json:"rect,omitempty"`
	Rects []rectJSON `json:"rects,omitempty"`
}

// rects resolves the single/plural forms into the query list.
func (q *searchRequest) rects() ([]segidx.Rect, error) {
	if (q.Rect == nil) == (len(q.Rects) == 0) {
		return nil, badRequest(`body needs exactly one of "rect" or "rects"`)
	}
	var wire []rectJSON
	if q.Rect != nil {
		wire = []rectJSON{*q.Rect}
	} else {
		wire = q.Rects
	}
	out := make([]segidx.Rect, len(wire))
	for i := range wire {
		r, err := wire[i].toRect()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// stabRequest is the body of /stab: one point or several.
type stabRequest struct {
	Point  []float64   `json:"point,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
}

// points resolves the single/plural forms, validating each coordinate
// slice (the engine's Point panics on NaN-free invalid input only via
// rect validation, so dimensions are bounded here).
func (q *stabRequest) points() ([][]float64, error) {
	if (q.Point == nil) == (len(q.Points) == 0) {
		return nil, badRequest(`body needs exactly one of "point" or "points"`)
	}
	pts := q.Points
	if q.Point != nil {
		pts = [][]float64{q.Point}
	}
	for i, p := range pts {
		if len(p) == 0 {
			return nil, badRequest("point %d is empty", i)
		}
		if len(p) > MaxDims {
			return nil, badRequest("point %d has %d dimensions, max %d", i, len(p), MaxDims)
		}
		for d, v := range p {
			if math.IsNaN(v) {
				return nil, badRequest("point %d has NaN in dimension %d", i, d)
			}
		}
	}
	return pts, nil
}

// recordJSON is the wire form of one record: /insert's body and the
// elements of /bulkload.
type recordJSON struct {
	ID   uint64    `json:"id"`
	Rect *rectJSON `json:"rect"`
}

// toRecord validates the wire record. IDs must be nonzero: RecordID 0 is
// reserved so a zero-valued (or id-less) request cannot silently collide
// on one record.
func (rec *recordJSON) toRecord() (segidx.BulkRecord, error) {
	if rec.ID == 0 {
		return segidx.BulkRecord{}, badRequest("record needs a nonzero id")
	}
	if rec.Rect == nil {
		return segidx.BulkRecord{}, badRequest("record needs a rect")
	}
	r, err := rec.Rect.toRect()
	if err != nil {
		return segidx.BulkRecord{}, err
	}
	return segidx.BulkRecord{ID: segidx.RecordID(rec.ID), Rect: r}, nil
}

// deleteRequest is the body of /delete. Hint must cover the rectangle
// originally inserted; see (*segidx.Index).Delete.
type deleteRequest struct {
	ID   uint64    `json:"id"`
	Hint *rectJSON `json:"hint"`
}

// bulkloadRequest is the body of /bulkload.
type bulkloadRequest struct {
	Records []recordJSON `json:"records"`
}

// decodeBody decodes the request body as a single strict JSON value into
// v: unknown fields, trailing garbage, and bodies over the server's byte
// limit are errors. The returned error is an *httpError carrying 400 or
// 413.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &httpError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("body exceeds %d bytes", maxBytes),
			}
		}
		return badRequest("malformed JSON body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	// Drain any remaining whitespace so keep-alive connections can be
	// reused; MaxBytesReader keeps this bounded.
	_, _ = io.Copy(io.Discard, body) // best-effort drain
	return nil
}

// Cache keys encode the exact float64 bit patterns of a query, so two
// rects are assigned the same key iff they are bit-identical — no epsilon
// collapsing, which keeps a cached response byte-exact for its query.

// appendCoords appends the IEEE-754 bit patterns of coords to key.
func appendCoords(key []byte, coords []float64) []byte {
	for _, v := range coords {
		key = append(key, '|')
		key = strconv.AppendUint(key, math.Float64bits(v), 16)
	}
	return key
}

// searchKey builds the cache key for a rect query on an endpoint
// ("search", "within", "count", ...).
func searchKey(endpoint string, r segidx.Rect) string {
	var buf [128]byte // a key of up to 3 dimensions is built on the stack
	key := append(buf[:0], endpoint...)
	key = appendCoords(key, r.Min)
	key = append(key, '/')
	key = appendCoords(key, r.Max)
	return string(key)
}

// stabKey builds the cache key for a stab point.
func stabKey(p []float64) string {
	var buf [128]byte // a key of up to 7 dimensions is built on the stack
	key := append(buf[:0], "stab"...)
	key = appendCoords(key, p)
	return string(key)
}
