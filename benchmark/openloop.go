package main

import "time"

// lateAfter is how long a send may leave after the moment it could have
// left — its due time, or the moment the connection came free if that was
// later — before the generator, not the system, is to blame for part of
// the latency. Waiting for the busy connection is the system's backlog and
// is charged to the request's latency instead.
const lateAfter = time.Millisecond

// openLoop issues requests on a fixed schedule regardless of how fast
// replies arrive: request k is due at k/rate after the start and is sent
// then, or as soon as the one before it has returned if that is later.
// do, which runs one request, is handed the due time so that it counts
// latency from there and a stall is charged to every request it delays.
// It returns the number of requests sent and how many left more than
// lateAfter behind schedule.
func openLoop(rate float64, dur time.Duration, do func(due time.Time)) (sent, late int64) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for ; ; sent++ {
		free := time.Since(start)
		due := time.Duration(sent) * interval
		if due >= dur {
			return sent, late
		}
		if wait := due - free; wait > 0 {
			time.Sleep(wait)
		}
		if leftLate(due, free, time.Since(start)) {
			late++
		}
		do(start.Add(due))
	}
}

// leftLate reports whether a request due at due, on a connection that
// came free at free, and sent at sent (all offsets from the start) left
// late through the generator's own fault.
func leftLate(due, free, sent time.Duration) bool {
	ready := due
	if free > ready {
		ready = free
	}
	return sent-ready > lateAfter
}
