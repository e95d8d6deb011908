package main

import (
	"context"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// The service load is open-loop: requests are due on a schedule fixed in
// advance (Poisson arrivals at the offered rate), independent of how fast
// the service answers. A request is timed from when it was due, so a stall
// charges every request queued behind it, and the generator reports how
// late it sent each request.

// arrivals returns Poisson due offsets at rate per second over dur.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// sendTiming is one request's timeline relative to the run start.
type sendTiming struct {
	due, sent, done time.Duration
}

func (s sendTiming) latency() time.Duration { return s.done - s.due }
func (s sendTiming) late() time.Duration    { return s.sent - s.due }

// openLoop is the outcome of one scheduled run.
type openLoop struct {
	timings []sendTiming
	// backlog[i] is how many earlier requests were due but not yet sent
	// when request i fell due.
	backlog []int
}

// grew reports whether the backlog grew over the run: whether requests
// met, on average, more than one extra queued request in the second half
// of the schedule than in the first.
func (o openLoop) grew() bool {
	n := len(o.backlog)
	if n < 2 {
		return false
	}
	mean := func(b []int) float64 {
		t := 0
		for _, v := range b {
			t += v
		}
		return float64(t) / float64(len(b))
	}
	return mean(o.backlog[n/2:]) > mean(o.backlog[:n/2])+1
}

// sleepUntil blocks until t or until ctx ends. It sleeps with nanosleep
// in slices of at most 10 ms: the runtime's timers wake an idle process up
// to a millisecond late, which every request would be charged as
// lateness, while nanosleep wakes within about 0.1 ms.
func sleepUntil(ctx context.Context, t time.Time) {
	for ctx.Err() == nil {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(min(d, 10*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop sleeps again
	}
}

// runOpenLoop sends request i at due[i] (offsets from now) on conns
// concurrent senders and returns once every request finished. send must
// be safe for concurrent use. Requests not yet sent when ctx ends are
// skipped and keep a zero timing.
func runOpenLoop(ctx context.Context, due []time.Duration, conns int, send func(i int)) openLoop {
	res := openLoop{timings: make([]sendTiming, len(due)), backlog: make([]int, len(due))}
	queue := make(chan int, len(due)) // holds every due request not yet taken
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if ctx.Err() != nil {
					continue
				}
				sent := time.Since(start)
				send(i)
				res.timings[i] = sendTiming{due: due[i], sent: sent, done: time.Since(start)}
			}
		}()
	}
	for i, off := range due {
		sleepUntil(ctx, start.Add(off))
		res.backlog[i] = len(queue)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}
