package accel

import (
	"testing"

	"segidx/internal/workload"
)

// tiReplay builds the state a temporal write stream leaves behind: 50 000
// TI records, then 20 000 alternating appends and expiries of the oldest
// record, all committed in groups of 32 with the GC floor trailing eight
// commits behind. It returns the accelerator, the last commit epoch, and
// the frontier (end time of the newest record).
func tiReplay(tb testing.TB) (*Accel, uint64, float64) {
	tb.Helper()
	const preload, churn, group, lag = 50_000, 20_000, 32, 8
	recs := workload.TI.Generate(preload+churn/2, 1)
	a, err := New(Config{Dims: 2, Dim: 0, Levels: 10, Lo: workload.DomainLo, Hi: workload.DomainHi})
	if err != nil {
		tb.Fatal(err)
	}
	epoch := uint64(1)
	ops := 0
	step := func() {
		if ops++; ops%group == 0 {
			epoch++
			a.Commit(epoch, max(epoch, lag+1)-lag)
		}
	}
	for i := 0; i < preload; i++ {
		a.StageInsert(recs[i], uint64(i+1))
		step()
	}
	next, oldest := preload, 0
	for i := 0; i < churn; i++ {
		if i%2 == 0 {
			a.StageInsert(recs[next], uint64(next+1))
			next++
		} else {
			oldest++
			a.StageDelete(uint64(oldest))
		}
		step()
	}
	epoch++
	a.Commit(epoch, epoch-lag)
	return a, epoch, recs[next-1].Max[0]
}

// BenchmarkRangeCountTI times now-heavy TI time-slices — the whole
// non-hot extent at one instant, "what is valid at t?" — on the replay
// state: counted (nil VisitFunc, the Count path) and visited through a
// counting callback (the Search path's per-record cost).
func BenchmarkRangeCountTI(b *testing.B) {
	a, epoch, now := tiReplay(b)
	ts := workload.TIStabTimes(now, 1024, 7)
	for _, mode := range []struct {
		name string
		fn   VisitFunc
	}{
		{"count", nil},
		{"visit", func(min, max []float64, id uint64) bool { return true }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			qmin := []float64{0, workload.DomainLo}
			qmax := []float64{0, workload.DomainHi}
			matches := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qmin[0] = ts[i%len(ts)]
				qmax[0] = qmin[0]
				matches += a.RangeVisit(epoch, qmin, qmax, mode.fn)
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		})
	}
}
