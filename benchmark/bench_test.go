package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"segidx/internal/geom"
	"segidx/internal/store"
	"segidx/internal/workload"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{
		{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {1000000, 0.99999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Error("p99 must need exactly 1000 samples")
	}
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ { // 1 µs .. 100 ms, uniform
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100000 * 1e3
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %.0f ns, want %.0f within 1%%", q, got, want)
		}
	}
}

func TestSetLatencyFallsBackToSupportedPercentile(t *testing.T) {
	r := newReport(io.Discard)
	h := new(hist)
	for i := 1; i <= 300; i++ { // 300 samples support p90 at best
		h.add(time.Duration(i) * time.Microsecond)
	}
	r.setLatency("p99", h, 0.99)
	r.setLatency("p50", h, 0.5)
	if got := r.values["p99"]; math.Abs(got-270) > 3 {
		t.Errorf("p99 of 300 samples = %v us, want their p90 (270)", got)
	}
	if !strings.Contains(r.notes["p99"], "p90") || strings.Contains(r.notes["p50"], "highest") {
		t.Errorf("notes must name the percentile reported: %q, %q", r.notes["p99"], r.notes["p50"])
	}
	if got := r.values["p50"]; math.Abs(got-150) > 2 {
		t.Errorf("p50 = %v us, want 150", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "req", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},  // nested
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: union is [10,50]
		{Name: "c", Start: 90, End: 120, Parent: 0}, // overhangs the parent: clipped to [90,100]
		{Name: "a1", Start: 12, End: 18, Parent: 1}, // grandchild counts against a only
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerParentsAndSwitch(t *testing.T) {
	tr := newTracer()
	if tr.begin("off") != -1 {
		t.Fatal("a tracer records before it is switched on")
	}
	tr.on.Store(true)
	tr.nextReq()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	tr.nextReq()
	tr.end(tr.begin("next"))
	got := tr.since(0)
	if len(got) != 3 || got[0].Parent != -1 || got[1].Parent != 0 || got[2].Parent != -1 {
		t.Fatalf("parents wrong: %+v", got)
	}
	if got[0].Req != 1 || got[1].Req != 1 || got[2].Req != 2 {
		t.Errorf("request ids wrong: %+v", got)
	}
	var none *tracer
	none.end(none.begin("nil tracer")) // must not panic
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// 100 req/s offered to a connection that needs 30 ms per request: the
	// backlog grows, and latency counted from the due time must grow with
	// it although each request's own service time stays 30 ms.
	var lats []time.Duration
	sent, late := openLoop(100, 200*time.Millisecond, func(due time.Time) {
		time.Sleep(30 * time.Millisecond)
		lats = append(lats, time.Since(due))
	})
	if sent != 20 || len(lats) != 20 {
		t.Fatalf("sent %d, recorded %d; want 20 each", sent, len(lats))
	}
	if lats[0] > 60*time.Millisecond || lats[19] < 300*time.Millisecond {
		t.Errorf("latency from due time should grow from ~30 ms to ~400 ms, got %v .. %v", lats[0], lats[19])
	}
	if late > 2 { // waiting for the busy connection is backlog, not generator lateness
		t.Errorf("%d sends counted late; the connection, not the generator, was behind", late)
	}
}

func TestLeftLate(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		due, free, sent time.Duration
		want            bool
	}{
		{10 * ms, 0, 10*ms + 500*time.Microsecond, false}, // woke half a millisecond after due
		{10 * ms, 0, 12 * ms, true},                       // generator overslept by 2 ms
		{10 * ms, 50 * ms, 50 * ms, false},                // worker busy until 50 ms: backlog
		{10 * ms, 50 * ms, 52 * ms, true},                 // free at 50 ms yet sent at 52 ms
	} {
		if got := leftLate(c.due, c.free, c.sent); got != c.want {
			t.Errorf("leftLate(%v, %v, %v) = %v", c.due, c.free, c.sent, got)
		}
	}
}

// streamBytes serialises the op streams a seed produces.
func streamBytes(t *testing.T, seed uint64) []byte {
	var buf bytes.Buffer
	put := func(vs ...float64) {
		for _, v := range vs {
			_ = binary.Write(&buf, binary.LittleEndian, math.Float64bits(v)) // bytes.Buffer cannot fail
		}
	}
	data := workload.I3.Generate(2000, seed)
	for _, o := range queryStream(data, seed) {
		put(float64(o.kind), o.rect.Min[0], o.rect.Min[1], o.rect.Max[0], o.rect.Max[1])
	}
	for _, h := range hopStream(seed) {
		put(float64(h.ep), float64(h.slot))
	}
	pool, err := queryPoolFor(data, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pool {
		buf.Write(q.stabBody)
		buf.Write(q.rectBody)
	}
	return buf.Bytes()
}

func TestStreamsFollowSeed(t *testing.T) {
	a, b, c := streamBytes(t, 7), streamBytes(t, 7), streamBytes(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("equal seeds gave different op streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same op streams")
	}
}

func TestQueryStreamMix(t *testing.T) {
	ops := queryStream(workload.I3.Generate(2000, 1), 1)
	ranges := 0
	for _, o := range ops {
		if o.kind == opRange {
			ranges++
		}
	}
	if share := float64(ranges) / float64(len(ops)); math.Abs(share-rangeShare) > 0.02 {
		t.Errorf("range share %.3f, want %.2f", share, rangeShare)
	}
}

func TestCountingStoreForwardsAndCounts(t *testing.T) {
	inner := store.NewMemStore()
	cs := newCountingStore(inner, nil)
	id, err := cs.Allocate(128)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xab}, 128)
	if err := cs.Write(id, page); err != nil {
		t.Fatal(err)
	}
	got, err := cs.Read(id)
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("read back %d bytes, err %v", len(got), err)
	}
	if direct, _ := inner.Read(id); !bytes.Equal(direct, page) {
		t.Error("write did not reach the inner store")
	}
	if n, _ := cs.PageSize(id); n != 128 || cs.Len() != inner.Len() {
		t.Error("PageSize/Len not forwarded")
	}
	if ids, held := cs.livePages(); len(ids) != 1 || ids[0] != id || held != 128 {
		t.Errorf("live pages %v, %d bytes", ids, held)
	}
	if err := cs.Commit(); err != nil {
		t.Error("Commit over a non-transactional store must be a silent no-op")
	}
	if err := cs.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Read(id); err == nil {
		t.Error("free did not reach the inner store")
	}
	if _, err := cs.Read(id); err == nil {
		t.Error("error from the inner store not forwarded")
	}
	if r, w := cs.reads.Load(), cs.writes.Load(); r != 2 || w != 1 { // the failed read is still a read
		t.Errorf("reads, writes = %d, %d; want 2, 1", r, w)
	}
	if ids, held := cs.livePages(); len(ids) != 0 || held != 0 {
		t.Errorf("after free: live pages %v, %d bytes", ids, held)
	}
}

func TestCountingFSForwardsAndCounts(t *testing.T) {
	dir := t.TempDir()
	cfs := &countingFS{inner: store.OS}
	data, err := cfs.OpenFile(filepath.Join(dir, "pages"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := cfs.OpenFile(filepath.Join(dir, "pages"+store.WALSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := data.WriteAt([]byte("0123456789"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := data.ReadAt(buf, 7); err != nil || string(buf) != "2345" {
		t.Fatalf("read %q, err %v", buf, err)
	}
	if sz, err := data.Size(); err != nil || sz != 15 {
		t.Errorf("Size = %d, %v; want 15 (embedded method must forward)", sz, err)
	}
	if err := data.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if sz, _ := data.Size(); sz != 3 {
		t.Errorf("Truncate not forwarded: size %d", sz)
	}
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Remove(filepath.Join(dir, "pages")); err != nil {
		t.Fatal(err)
	}
	if n, _ := dirBytes(dir); n != 3 {
		t.Errorf("after Remove the directory holds %d bytes, want the WAL's 3", n)
	}
	want := [...]int64{13, 3, 1}
	have := [...]int64{cfs.writeBytes.Load(), cfs.walBytes.Load(), cfs.syncs.Load()}
	if have != want {
		t.Errorf("writeBytes, walBytes, syncs = %v, want %v", have, want)
	}
}

func TestModelVersions(t *testing.T) {
	m := newModel(4)
	all := func(geom.Rect) bool { return true }
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.insertLocked(1, geom.Rect2(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.insertLocked(2, geom.Rect2(5, 5, 6, 6)); err != nil {
		t.Fatal(err)
	}
	before := m.nowLocked()
	if _, err := m.removeLocked(1); err != nil {
		t.Fatal(err)
	}
	if err := m.insertLocked(1, geom.Rect2(2, 2, 3, 3)); err != nil {
		t.Fatal(err)
	}
	between := cut{seq: before.seq + 1, n: m.n}
	after := m.nowLocked()
	if got := m.ids(before, all); len(got) != 2 {
		t.Errorf("before the delete: %v", got)
	}
	if got := m.ids(between, all); len(got) != 1 || got[0] != 2 {
		t.Errorf("between delete and reinsert: %v, want [2]", got)
	}
	if got := m.ids(after, intersecting(geom.Rect2(2, 2, 2, 2))); len(got) != 1 || got[0] != 1 {
		t.Errorf("after the reinsert the new rectangle must answer: %v", got)
	}
	if got := m.ids(before, intersecting(geom.Rect2(2, 2, 2, 2))); len(got) != 0 {
		t.Errorf("the old state must not see the new rectangle: %v", got)
	}
	if err := m.insertLocked(2, geom.Rect2(0, 0, 1, 1)); err == nil {
		t.Error("double insert accepted")
	}
	// The log grows by chunks; versions handed out earlier must not move.
	first := m.at(0)
	for id := uint64(10); id < 10+2*chunkLen; id++ {
		if err := m.insertLocked(id, geom.Rect2(9, 9, 9, 9)); err != nil {
			t.Fatal(err)
		}
	}
	if m.at(0) != first || len(m.ids(m.nowLocked(), all)) != 2+2*chunkLen {
		t.Error("growing the log moved or lost versions")
	}
	if got := m.ids(before, all); len(got) != 2 {
		t.Errorf("an old cut sees later versions: %d ids", len(got))
	}
	if !sameIDs([]uint64{3, 1, 3, 2, 1}, []uint64{1, 2, 3}) || sameIDs([]uint64{1, 2}, []uint64{1, 3}) {
		t.Error("sameIDs must ignore order and duplicates, not values")
	}
}
