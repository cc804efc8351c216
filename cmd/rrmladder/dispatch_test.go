package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// Requests are due faster than one client can send them: the loop must
// never have two in flight, time each from its send, and record how far it
// fell behind the schedule. Once the schedule slows down, it is on time again.
func TestPacedLoopKeepsOneInFlight(t *testing.T) {
	const service = 3 * time.Millisecond
	events := make([]event, 30)
	for i := range events {
		events[i].at = time.Duration(i) * time.Millisecond // 20 requests due in 20ms
		if i >= 20 {
			events[i].at = 20*time.Millisecond + time.Duration(i-20)*20*time.Millisecond
		}
	}
	var inFlight, peak atomic.Int32
	samples, late, elapsed := pacedLoop(events, func(i int, s *sample) time.Time {
		n := inFlight.Add(1)
		peak.Store(max(peak.Load(), n))
		start := time.Now()
		time.Sleep(service)
		inFlight.Add(-1)
		s.ok = true
		s.lat = ms(time.Since(start))
		return time.Now()
	}, func() {})
	if peak.Load() != 1 {
		t.Errorf("%d requests in flight, want 1", peak.Load())
	}
	if len(samples) != len(events) || len(late) != len(events) {
		t.Fatalf("%d samples, %d lateness values for %d events", len(samples), len(late), len(events))
	}
	for i, s := range samples {
		if !s.ok || s.lat < ms(service) || s.lat > 10*ms(service) {
			t.Errorf("sample %d: ok=%v, %.3fms for a %s request", i, s.ok, s.lat, service)
		}
	}
	// 20 requests of 3ms due 1ms apart: the 20th goes out about 40ms late.
	if late[19] < 30 {
		t.Errorf("request 19 went out %.3fms late, want about 40ms", late[19])
	}
	// The slow tail (20ms apart) lets the client catch up.
	if late[len(late)-1] > 2 {
		t.Errorf("last request went out %.3fms late on a slow schedule", late[len(late)-1])
	}
	if elapsed < events[len(events)-1].at+service {
		t.Errorf("window of %s is shorter than its schedule", elapsed)
	}
}
