package main

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestArrivalsAreSeededPoisson(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := arrivals(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Fatal("the same seed gave different schedules")
	}
	if n := len(a); n < 9700 || n > 10300 {
		t.Fatalf("%d arrivals at 1000/s over 10 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d out of order or range: %v", i, a[i])
		}
	}
}

func TestOpenLoopKeepsScheduleUnderCapacity(t *testing.T) {
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	run := runOpenLoop(context.Background(), due, 2, func(int) { time.Sleep(time.Millisecond) })
	if run.grew() {
		t.Fatalf("backlog grew under light load: %v", run.backlog)
	}
	for i, tm := range run.timings {
		if tm.due != due[i] || tm.sent < tm.due || tm.done < tm.sent {
			t.Fatalf("request %d timeline %+v", i, tm)
		}
		if tm.latency() < time.Millisecond {
			t.Fatalf("request %d latency %v shorter than its service time", i, tm.latency())
		}
	}
}

func TestOpenLoopChargesLatenessFromDueTime(t *testing.T) {
	// Twice the offered rate one connection can serve: the queue grows,
	// and later requests are sent (and finish) ever later after their due
	// time, which their latency must include.
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	run := runOpenLoop(context.Background(), due, 1, func(int) { time.Sleep(2 * time.Millisecond) })
	if !run.grew() {
		t.Fatalf("backlog did not grow under overload: %v", run.backlog)
	}
	first, last := run.timings[0], run.timings[len(due)-1]
	if last.late() < 20*time.Millisecond {
		t.Fatalf("last request only %v late under 2x overload", last.late())
	}
	if last.latency() < last.late()+2*time.Millisecond || last.latency() <= first.latency() {
		t.Fatalf("latency %v does not include lateness %v", last.latency(), last.late())
	}
}

func TestSleepUntilWakesAfterTargetAndOnCancel(t *testing.T) {
	target := time.Now().Add(3 * time.Millisecond)
	sleepUntil(context.Background(), target)
	if time.Now().Before(target) {
		t.Fatal("woke before the target time")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	sleepUntil(ctx, t0.Add(time.Hour))
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("took %v to return after cancellation", d)
	}
}
