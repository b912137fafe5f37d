package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the span that was open when this one began (-1 for a request root); Req
// numbers the request the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer records spans into a pre-sized slice. The traced run drives one
// client, so at most one request is open at a time and a new span's parent
// is simply the innermost span still open; the mutex only orders the
// client goroutine against the HTTP server goroutine serving its request.
// A nil *tracer is valid and records nothing, which is how the untraced
// run uses the same decorators.
type tracer struct {
	on      atomic.Bool // spans are recorded only while set: set-up and warm-up stay out of the trace
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	open    []int32
	req     int32
	dropped int
}

// maxSpans bounds trace memory (40 B per span); the fixed op counts of
// the traced runs stay well below it.
const maxSpans = 1 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans), open: make([]int32, 0, 16)}
}

// nextReq starts a new request: subsequent root spans carry the new id.
func (t *tracer) nextReq() {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// begin opens a span and returns its handle for end (-1 when not
// recording).
func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Req: t.req})
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned. Spans close in LIFO order on the
// single traced client; a handle that is not innermost (the server
// goroutine finishing after its client gave up) is removed wherever it is.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == i {
			t.open = append(t.open[:k], t.open[k+1:]...)
			break
		}
	}
}

// len reports how many spans have been recorded; since returns a copy of
// those from index i on. The HTTP run reads the trace while the server
// goroutine may still be appending, hence the lock.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(i int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[i:]...)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by the union of its direct children (clipped to the
// parent, so overlapping or overhanging children are not counted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < upto {
				lo = upto
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanStats aggregates a trace by span name.
type spanStats struct {
	count   int
	totalNs int64
	selfNs  int64
	durs    []float64 // per-span durations, nanoseconds
}

func summarize(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = new(spanStats)
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.totalNs += d
		st.selfNs += self[i]
		st.durs = append(st.durs, float64(d))
	}
	return out
}

// get returns the stats for name, or an empty record so callers can read
// counts of spans that never occurred.
func get(m map[string]*spanStats, name string) *spanStats {
	if s := m[name]; s != nil {
		return s
	}
	return new(spanStats)
}

// writeTrace writes the spans as one JSON document.
func (t *tracer) writeTrace(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
