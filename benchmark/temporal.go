package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"segidx"
	"segidx/internal/geom"
	"segidx/internal/store"
	"segidx/internal/workload"
)

// temporal_rw: writes between reads on one tree. The TI dataset arrives in
// increasing-end-time order on a durable WAL store with the stab sidecar
// attached (auto routing). One client interleaves, in one goroutine, a
// writer's append : close : expire at 6 : 2 : 2 with a group commit every
// 32 mutations (WAL fsync + page-file fsync per Flush) and, after every
// mutation, four reads asking "what is valid at time t" at now-heavy
// times, one in ten over a short window instead of an instant. Every
// 500th read goes through a pinned snapshot that is checked against the
// model, and every other one of those stays pinned for eight more commits,
// so superseded page versions must be retained and later collected. This
// is where copy-on-write cost, WAL commit cost, sidecar maintenance and
// routing, and delete/condense/coalesce all show; the query workloads
// touch none of them.
//
// One goroutine, not a writer beside a reader: with both of the reference
// box's vCPUs busy, a read's latency depends on whether the writer happens
// to be on its CPU or asleep in fsync, and on how much of the second vCPU
// the host grants at that moment, so the reader's median moved by a third
// between runs of the same code. Interleaved, every read still meets pages
// the writer has just cloned and versions a snapshot holds back, and the
// figures repeat. What this gives up — that a reader never waits for the
// writer's lock — is asserted by the engine's own race and no-tree-lock
// tests, not measured here.

// Op classes of temporal_rw. opStab and opRange (query.go) are the
// reader's; the writer adds two.
const (
	opWrite = queryClasses + iota
	opCommit
	temporalClasses
)

const (
	// flushEvery is the group-commit size: one Flush per 32 mutations.
	flushEvery = 32
	// holdCommits is how long every 1000th read keeps its snapshot: until
	// eight more group commits (256 mutations, 1024 reads) have gone by,
	// about 80 ms on the reference box.
	holdCommits = 8
	// windowEvery makes every tenth read a window query; windowWidth is
	// its extent in time, 1 % of the domain.
	windowEvery = 10
	windowWidth = 0.01 * (workload.DomainHi - workload.DomainLo)
	// accelLevels is the sidecar depth (WithStabAccel(0, 10)).
	accelLevels = 10
	// readsPerWrite is the number of reads after every mutation;
	// tracedWrites fixes the traced run at 100 group commits.
	readsPerWrite = 4
	tracedWrites  = 100 * flushEvery
	// twinStabs is the stab count issued at the always/off twin indexes.
	twinStabs = 2000
)

// writeCycle is the 6 : 2 : 2 mix; 'o' is an append inserted open-ended
// (end time = end of domain) that a later 'c' closes by deleting it and
// reinserting it with its final end time, 'e' expires the oldest record.
const writeCycle = "aoaceaoace"

type temporalBench struct {
	cfg config
	r   *report
	tr  *tracer

	dir, path string
	stream    []geom.Rect // TI records in arrival order; id = index+1
	preload   int
	m         *model
	cfs       *countingFS
	cs        *countingStore
	idx       *segidx.Index
	baseHeap  float64

	// writer state
	next, oldest int
	open         []int
	muts         int
	now          float64 // end time of the newest record

	built
}

func newTemporalBench(cfg config, r *report, tr *tracer) *temporalBench {
	return &temporalBench{cfg: cfg, r: r, tr: tr}
}

// indexOptions are the options every temporal index shares; the twins
// differ only in store and routing mode.
func temporalOptions(mode segidx.HybridMode) []segidx.Option {
	return []segidx.Option{segidx.WithStabAccel(0, accelLevels), segidx.WithHybridMode(mode)}
}

func (b *temporalBench) setup() error {
	t0 := time.Now()
	// Half the dataset is preloaded; the rest is the writer's supply of
	// appends, several times what the reference box consumes in a run.
	// Should it run out the writer wraps around (see appendLocked).
	b.stream = workload.TI.Generate(b.cfg.tuples, dataSeed)
	b.preload = b.cfg.tuples / 2
	b.genDur = time.Since(t0)

	var err error
	if b.dir, err = freshDir(b.cfg); err != nil {
		return err
	}
	b.path = filepath.Join(b.dir, "pages")
	b.m = newModel(len(b.stream))
	b.baseHeap = heapMiB()
	b.cfs = &countingFS{inner: store.OS, tr: b.tr}
	if b.cs, err = openStore(b.cfs, b.path, true, b.tr); err != nil {
		return err
	}
	opts := append(temporalOptions(segidx.HybridAuto), segidx.WithStore(b.cs))
	if b.idx, err = newSkeletonSR(spec(workload.TI, b.preload), opts...); err != nil {
		return err
	}
	t0 = time.Now()
	if err := load(b.idx, b.m, b.stream[:b.preload]); err != nil {
		return err
	}
	if err := b.idx.Flush(); err != nil {
		return err
	}
	b.buildDur = time.Since(t0)
	b.loadStats, b.loaded = b.idx.Stats(), b.preload
	b.next = b.preload
	b.now = b.stream[b.preload-1].Max[0]

	// Warm-up: a few commits' worth of the mixed loop, so the sidecar's
	// cost gate has measured both sides and the WAL file exists.
	rd := b.newReader()
	defer rd.releaseAll()
	_, err = b.mixed(rd, nil, func(writes int) bool { return writes < 8*flushEvery }, func(string) {})
	return err
}

// openEnded is r with its end time pushed to the end of the domain: a
// record that is "still running".
func openEnded(r geom.Rect) geom.Rect {
	return geom.Rect2(r.Min[0], r.Min[1], workload.DomainHi, r.Max[1])
}

// mutate performs the next mutation of writeCycle on the engine and on
// the model, under the model's lock as its methods require.
func (b *temporalBench) mutate() error {
	kind := writeCycle[b.muts%len(writeCycle)]
	b.muts++
	b.m.mu.Lock()
	defer b.m.mu.Unlock()
	switch kind {
	case 'a', 'o':
		return b.appendLocked(kind == 'o')
	case 'c':
		for len(b.open) > 0 {
			i := b.open[0]
			b.open = b.open[1:]
			if _, live := b.m.cur[uint64(i+1)]; live {
				return b.closeLocked(i)
			}
		}
		return b.appendLocked(false) // nothing open: keep the op count honest
	default:
		return b.expireLocked()
	}
}

// appendLocked inserts the next record of the stream. Past the end of the
// stream it starts over under fresh ids: time jumps back, which changes
// what the workload means but keeps every op valid; the stream is sized
// so that this happens only on a machine far faster than the reference.
func (b *temporalBench) appendLocked(open bool) error {
	i := b.next
	b.next++
	r := b.stream[i%len(b.stream)]
	if i < len(b.stream) {
		b.now = r.Max[0]
	}
	if open && i < len(b.stream) {
		r = openEnded(r)
		b.open = append(b.open, i)
	}
	if err := b.idx.Insert(r, segidx.RecordID(i+1)); err != nil {
		return err
	}
	return b.m.insertLocked(uint64(i+1), r)
}

// closeLocked gives open record i its final end time: delete + reinsert.
func (b *temporalBench) closeLocked(i int) error {
	id := uint64(i + 1)
	old, err := b.m.removeLocked(id)
	if err != nil {
		return err
	}
	if n, err := b.idx.Delete(segidx.RecordID(id), old); err != nil || n != 1 {
		return fmt.Errorf("close %d: deleted %d records: %v", id, n, err)
	}
	if err := b.idx.Insert(b.stream[i], segidx.RecordID(id)); err != nil {
		return err
	}
	return b.m.insertLocked(id, b.stream[i])
}

// expireLocked deletes the oldest live record.
func (b *temporalBench) expireLocked() error {
	for {
		id := uint64(b.oldest + 1)
		b.oldest++
		if _, live := b.m.cur[id]; !live {
			continue
		}
		old, err := b.m.removeLocked(id)
		if err != nil {
			return err
		}
		if n, err := b.idx.Delete(segidx.RecordID(id), old); err != nil || n != 1 {
			return fmt.Errorf("expire %d: deleted %d records: %v", id, n, err)
		}
		return nil
	}
}

// reader issues the read stream. It owns the query rectangle's storage
// so building a query allocates nothing.
type reader struct {
	b      *temporalBench
	times  []float64
	batch  uint64
	i      int
	coords [4]float64
	held   []heldView
}

type heldView struct {
	v     segidx.View
	until int // release once the reader has issued this many ops
}

func (b *temporalBench) newReader() *reader { return &reader{b: b} }

// query builds the next read: a time-slice at a now-heavy instant, or
// every windowEvery-th time a window starting there.
func (rd *reader) query() (geom.Rect, int) {
	if len(rd.times) == 0 {
		rd.batch++
		rd.times = workload.TIStabTimes(rd.b.now, 256, rd.b.cfg.seed+rd.batch)
	}
	t := rd.times[0]
	rd.times = rd.times[1:]
	rd.i++
	class, hi := opStab, t
	if rd.i%windowEvery == 0 {
		class, hi = opRange, math.Min(t+windowWidth, workload.DomainHi)
	}
	rd.coords = [4]float64{t, workload.DomainLo, hi, workload.DomainHi}
	return geom.Rect{Min: rd.coords[0:2], Max: rd.coords[2:4]}, class
}

// next issues one read and records its latency in l (nil: not recorded).
// Every checkEvery-th read goes through a snapshot pinned together with a
// model cut, is timed like any other, and is then checked against the
// model outside the timed interval.
func (rd *reader) next(l lat) error {
	q, class := rd.query()
	names := [queryClasses]string{"core.range", "core.stab"}
	if rd.i%checkEvery != 0 {
		rd.b.tr.nextReq()
		sp := rd.b.tr.begin(names[class])
		t0 := time.Now()
		_, err := rd.b.idx.Count(q)
		d := time.Since(t0)
		rd.b.tr.end(sp)
		if l != nil {
			l[class].add(d)
		}
		return err
	}
	rd.b.m.mu.Lock()
	v := rd.b.idx.Snapshot()
	at := rd.b.m.nowLocked()
	rd.b.m.mu.Unlock()
	t0 := time.Now()
	n, err := v.Count(q)
	d := time.Since(t0)
	if l != nil {
		l[class].add(d)
	}
	if err == nil {
		err = rd.b.checkView(v, at, q, n)
	}
	if err != nil || rd.i%(2*checkEvery) != 0 {
		v.Release()
		return err
	}
	rd.held = append(rd.held, heldView{v: v, until: rd.i + holdCommits*flushEvery*readsPerWrite})
	return nil
}

// releaseDue releases the held snapshots whose time is up. Time is
// counted in ops, not on the clock, so that what the engine is asked to
// do does not depend on how fast the machine happens to be.
func (rd *reader) releaseDue() {
	for len(rd.held) > 0 && rd.i >= rd.held[0].until {
		rd.held[0].v.Release()
		rd.held = rd.held[1:]
	}
}

func (rd *reader) releaseAll() {
	for _, h := range rd.held {
		h.v.Release()
	}
	rd.held = nil
}

// checkView compares what view v reports for q with the model at cut at.
func (b *temporalBench) checkView(v segidx.View, at cut, q geom.Rect, count int) error {
	ents, err := v.Search(q)
	if err != nil {
		return err
	}
	got := make([]uint64, len(ents))
	for i, e := range ents {
		got[i] = uint64(e.ID)
	}
	want := b.m.ids(at, intersecting(q))
	b.r.attempt.Add(1)
	if !sameIDs(got, want) || count != len(want) {
		b.r.fail("snapshot at mutation %d, %v: Count %d, Search %d ids, model %d", at.seq, q, count, len(got), len(want))
	}
	return nil
}

func (b *temporalBench) measure() error {
	l := make(lat, temporalClasses)
	rd := b.newReader()
	start := time.Now()
	writes, err := b.mixed(rd, l, func(int) bool { return time.Since(start) < b.cfg.seconds }, func(string) {})
	phase := time.Since(start)
	// Before heap_mb is read: how many superseded versions the last pinned
	// snapshot holds back depends on how long ago it was taken.
	rd.releaseAll()
	if err != nil {
		return err
	}
	reads := int64(l[opStab].n + l[opRange].n)
	b.r.attempt.Add(int64(writes) + reads)
	if b.next > len(b.stream) {
		b.r.logf("note: append stream wrapped after %d records; times restarted", len(b.stream))
	}
	// The index grows by four records per ten mutations, so its raw heap
	// would follow the loop's speed; per 100 000 live records it does not.
	b.m.mu.Lock()
	live := b.m.liveLocked()
	b.m.mu.Unlock()
	b.r.set("heap_mb", (heapMiB()-b.baseHeap)*1e5/float64(live),
		fmt.Sprintf("live heap after GC, index open, minus the benchmark's own data, per 100000 of the %d live records", live))
	b.r.set("ops_s", float64(writes)/phase.Seconds(),
		fmt.Sprintf("%d acknowledged mutations in %.2f s, flush every %d and %d reads after each included", writes, phase.Seconds(), flushEvery, readsPerWrite))
	reportReads(b.r, &l[opStab], &l[opRange])
	b.r.logf("info: write p50 %.1f us (n=%d), commit p50 %.1f us (n=%d), %d reads",
		l[opWrite].quantile(0.5)/1e3, l[opWrite].n, l[opCommit].quantile(0.5)/1e3, l[opCommit].n, reads)

	return diskSpaceAmp(b.r, b.idx, b.dir, "page file + WAL")
}

// mixed runs the workload's one interleaving, in the calling goroutine,
// for as long as more (told the mutations done so far) says so: a
// mutation, a Flush after every flushEvery-th, then readsPerWrite reads.
// Every op's latency goes into l unless l is nil, and every mutation and
// flush is a root span when the tracer is on; each is told of both.
func (b *temporalBench) mixed(rd *reader, l lat, more func(writes int) bool, each func(kind string)) (writes int, err error) {
	timed := func(class int, span, kind string, op func() error) error {
		b.tr.nextReq()
		sp := b.tr.begin(span)
		t0 := time.Now()
		err := op()
		d := time.Since(t0)
		b.tr.end(sp)
		if err == nil {
			if l != nil {
				l[class].add(d)
			}
			each(kind)
		}
		return err
	}
	for ; more(writes); writes++ {
		if err := timed(opWrite, "core.write", "write", b.mutate); err != nil {
			return writes, err
		}
		if b.muts%flushEvery == 0 {
			if err := timed(opCommit, "core.flush", "flush", b.idx.Flush); err != nil {
				return writes, err
			}
		}
		for k := 0; k < readsPerWrite; k++ {
			if err := rd.next(l); err != nil {
				return writes, err
			}
			rd.releaseDue()
		}
	}
	return writes, nil
}

func (b *temporalBench) traced() error {
	r := b.r
	rd := b.newReader()
	defer rd.releaseAll()
	ops := float64(tracedWrites * (1 + readsPerWrite))

	// Pass A, untraced.
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	fixed := func(writes int) bool { return writes < tracedWrites }
	if _, err := b.mixed(rd, nil, fixed, func(string) {}); err != nil {
		return err
	}
	plain := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	// Pass B, traced, with counter deltas around it.
	st0, pool0, acc0 := b.idx.Stats(), b.idx.PoolStats(), b.accel()
	pw0, fw0, wal0, sync0 := b.cs.writes.Load(), b.cfs.writeBytes.Load(), b.cfs.walBytes.Load(), b.cfs.syncs.Load()
	var retained, retainedBytes uint64
	var flushes int
	b.tr.on.Store(true)
	t0 = time.Now()
	_, err := b.mixed(rd, nil, fixed, func(kind string) {
		if kind == "flush" {
			flushes++
			return
		}
		if ps := b.idx.PoolStats(); ps.Retained > retained {
			retained, retainedBytes = ps.Retained, ps.RetainedBytes
		}
	})
	tracedDur := time.Since(t0)
	b.tr.on.Store(false)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms2)
	st1, pool1, acc1 := b.idx.Stats(), b.idx.PoolStats(), b.accel()
	r.attempt.Add(int64(2 * ops))

	w := float64(tracedWrites)
	per1k := func(d uint64) float64 { return 1000 * float64(d) / w }
	sum := summarize(b.tr.spans)
	r.set("core.write_p50_us", quantileOf(get(sum, "core.write").durs, 0.5)/1e3, fmt.Sprintf("n=%d, flush excluded", tracedWrites))
	r.set("core.splits_per_1k_writes", per1k(st1.LeafSplits+st1.NonLeafSplits-st0.LeafSplits-st0.NonLeafSplits), "")
	r.set("core.cuts_per_1k_writes", per1k(st1.Cuts-st0.Cuts), "")
	r.set("core.reinserts_per_1k_writes", per1k(st1.Reinserts-st0.Reinserts), "")
	r.set("skeleton.coalesces_per_1k_writes", per1k(st1.Coalesces-st0.Coalesces), "")
	r.set("buffer.clones_per_write", float64(pool1.Clones-pool0.Clones)/w, "copy-on-write page clones")
	r.set("buffer.retained_peak", float64(retained), "superseded page versions held for snapshots")
	r.set("buffer.retained_bytes_peak", float64(retainedBytes), "")
	gets := float64(pool1.Gets - pool0.Gets)
	r.set("buffer.hit_rate", float64(pool1.Hits-pool0.Hits)/math.Max(1, gets), fmt.Sprintf("of %.0f gets", gets))

	// Reads: Searches counts tree searches only, so sidecar-routed reads
	// weigh in with zero nodes, as they should.
	reads := float64(tracedWrites * readsPerWrite)
	stabs, ranges := get(sum, "core.stab"), get(sum, "core.range")
	r.set("core.nodes_per_stab", float64(st1.SearchNodeAccesses-st0.SearchNodeAccesses)/reads,
		"all reads; depends on auto routing, so not exactly repeatable")
	r.set("core.self_us_per_stab", float64(stabs.selfNs)/math.Max(1, float64(stabs.count))/1e3, fmt.Sprintf("n=%d", stabs.count))
	r.set("core.self_us_per_range", float64(ranges.selfNs)/math.Max(1, float64(ranges.count))/1e3, fmt.Sprintf("n=%d", ranges.count))

	// Store: everything below the facade's Flush.
	fl := float64(flushes)
	fsyncByReq := make(map[int32]int64)
	for _, s := range b.tr.spans {
		if s.Name == "store.fsync" {
			fsyncByReq[s.Req] += s.End - s.Start
		}
	}
	var commitSelf []float64
	for _, s := range b.tr.spans {
		if s.Name == "core.flush" {
			commitSelf = append(commitSelf, float64(s.End-s.Start-fsyncByReq[s.Req]))
		}
	}
	r.set("store.commit_p50_us", quantileOf(get(sum, "core.flush").durs, 0.5)/1e3, fmt.Sprintf("n=%d Flush calls of %d mutations", flushes, flushEvery))
	r.set("store.commit_self_p50_us", quantileOf(commitSelf, 0.5)/1e3, "Flush span minus its fsync spans")
	r.set("store.fsync_p50_us", quantileOf(get(sum, "store.fsync").durs, 0.5)/1e3, fmt.Sprintf("n=%d", get(sum, "store.fsync").count))
	r.set("store.fsyncs_per_commit", float64(b.cfs.syncs.Load()-sync0)/fl, "exact")
	r.set("store.wal_bytes_per_commit", float64(b.cfs.walBytes.Load()-wal0)/fl, "")
	r.set("store.page_writes_per_write", float64(b.cs.writes.Load()-pw0)/w, "")
	r.set("store.bytes_written_per_user_byte", float64(b.cfs.writeBytes.Load()-fw0)/(w*recordBytes),
		fmt.Sprintf("file-level bytes, WAL included / %d mutations x %d B", tracedWrites, recordBytes))

	// Sidecar.
	routed := float64(acc1.RoutedAccel - acc0.RoutedAccel)
	total := routed + float64(acc1.RoutedTree-acc0.RoutedTree)
	r.set("accel.routed_share", routed/math.Max(1, total), fmt.Sprintf("of %.0f eligible reads", total))
	r.set("accel.probe_share", float64(acc1.Probes-acc0.Probes)/math.Max(1, total), "reads sent to the disfavoured side")
	r.set("accel.degraded", boolCount(acc1.Degraded), "")
	r.set("accel.live_slots", float64(acc1.Live), "")

	reportRuntime(r, &ms0, &ms1, &ms2, ops, plain, tracedDur)
	if err := b.built.report(r, b.idx); err != nil {
		return err
	}
	if err := b.idx.Flush(); err != nil {
		return err
	}
	if err := probeCodec(r, b.cs); err != nil {
		return err
	}
	now := b.now
	ts := workload.TIStabTimes(now, 200, b.cfg.seed)
	preds := make([]func(geom.Rect) bool, len(ts))
	for i, t := range ts {
		preds[i] = intersecting(geom.Rect2(t, workload.DomainLo, t, workload.DomainHi))
	}
	flatScan(r, b.m, preds)
	if err := b.twins(); err != nil {
		return err
	}
	return b.tr.writeTrace(filepath.Join(b.cfg.dir, "trace-"+b.cfg.workload+".json"))
}

func boolCount(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// accel returns the single tree's sidecar counters (zero if detached).
func (b *temporalBench) accel() segidx.AccelStats {
	if as := b.idx.AccelStats(); len(as) > 0 {
		return as[0]
	}
	return segidx.AccelStats{}
}

// twins times one stab stream on two in-memory copies of the preloaded
// data, one routing always to the sidecar and one never: the two costs
// auto routing chooses between, free of its probes.
func (b *temporalBench) twins() error {
	ts := workload.TIStabTimes(b.stream[b.preload-1].Max[0], twinStabs, b.cfg.seed+7)
	for _, mode := range []segidx.HybridMode{segidx.HybridAlways, segidx.HybridOff} {
		idx, err := newSkeletonSR(spec(workload.TI, b.preload), temporalOptions(mode)...)
		if err != nil {
			return err
		}
		durs := make([]float64, 0, len(ts))
		for i, rec := range b.stream[:b.preload] {
			if err = idx.Insert(rec, segidx.RecordID(i+1)); err != nil {
				break
			}
		}
		for pass := 0; pass < 2 && err == nil; pass++ { // the first pass warms
			durs = durs[:0]
			for _, t := range ts {
				t0 := time.Now()
				if _, err = idx.Count(geom.Rect2(t, workload.DomainLo, t, workload.DomainHi)); err != nil {
					break
				}
				durs = append(durs, float64(time.Since(t0).Nanoseconds()))
			}
		}
		if cerr := idx.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		note := fmt.Sprintf("n=%d on a twin of the preload", len(durs))
		if mode == segidx.HybridAlways {
			b.r.set("accel.stab_sidecar_p50_us", quantileOf(durs, 0.5)/1e3, note)
		} else {
			b.r.set("accel.stab_tree_p50_us", quantileOf(durs, 0.5)/1e3, note)
			b.r.set("accel.stab_tree_p99_us", quantileOf(durs, 0.99)/1e3, note)
		}
	}
	return nil
}

// finish closes the index, reopens it from disk alone and checks that
// what comes back is what the model says was committed: record count,
// structural invariants, and 200 sampled time-slices.
func (b *temporalBench) finish() error {
	if err := b.idx.Close(); err != nil {
		return err
	}
	b.idx = nil
	if err := b.cs.Close(); err != nil {
		return err
	}
	b.cs = nil
	t0 := time.Now()
	re, err := segidx.OpenDurable(b.path)
	if err != nil {
		b.r.attempt.Add(1)
		b.r.fail("reopen: %v", err)
		return nil
	}
	defer re.Close()
	at := b.m.now()
	b.m.mu.Lock()
	live := b.m.liveLocked()
	b.m.mu.Unlock()
	b.r.attempt.Add(2)
	if re.Len() != live {
		b.r.fail("reopened index holds %d records, model %d", re.Len(), live)
	}
	if err := re.CheckInvariants(); err != nil {
		b.r.fail("reopened index: %v", err)
	}
	v := re.Snapshot()
	defer v.Release()
	for _, t := range workload.TIStabTimes(b.now, 200, b.cfg.seed+99) {
		q := geom.Rect2(t, workload.DomainLo, t, workload.DomainHi)
		n, err := v.Count(q)
		if err == nil {
			err = b.checkView(v, at, q, n)
		}
		if err != nil {
			return err
		}
	}
	b.r.set("store.reopen_ms", float64(time.Since(t0).Microseconds())/1e3, "OpenDurable + Len + CheckInvariants + 200 checked stabs")
	return nil
}

func (b *temporalBench) close() error {
	var err error
	if b.idx != nil {
		err = b.idx.Close()
	}
	if b.cs != nil {
		if cerr := b.cs.Close(); err == nil {
			err = cerr
		}
	}
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}
	return err
}
