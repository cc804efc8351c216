package main

import (
	"runtime"
	"syscall"
	"time"
)

// pacedLead is how far in the future the first due time is set, so the
// client is asleep on the schedule before the first request is due.
const pacedLead = 5 * time.Millisecond

// pacedLoop is the serving workloads' client: one connection, sending
// events[i] at its due time or, when the previous reply came after that,
// as soon as the reply is in. Each latency is timed from the send, and the
// loop records how late each request went out, which is how far the client
// fell behind its schedule.
//
// Requests are not sent over each other, unlike an open loop timed from
// due: on a shared 2-vCPU host, the hypervisor takes the CPUs away for
// 5–30 ms several times a second in bad spells, and an open loop turns each
// such stall into a queue that every later request waits in. serve-hit's p50
// from due then moved between 0.32 and 2.3 ms across ten seeds at 1500
// req/s (and 0.55–1.1 ms at 300 req/s); from the send, on one connection,
// it stayed within ±5%. A stall now costs the requests it hits, not the
// ones after them.
//
// send performs request i, fills in its sample, and returns when the reply
// arrived, so checking the reply is not timed. idle runs after each send
// returns, before the wait for the next due time: the host probe's turn.
func pacedLoop(events []event, send func(i int, s *sample) time.Time, idle func()) (samples []sample, late []float64, elapsed time.Duration) {
	samples = make([]sample, len(events))
	late = make([]float64, len(events))
	// The runtime's timers wake a sleeping goroutine up to a millisecond
	// late, longer than the mean gap between requests at serve-hit's rate. A
	// thread of its own blocked in nanosleep wakes within tens of
	// microseconds, without spinning a CPU the daemon needs.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now().Add(pacedLead)
	var end time.Time
	for i, ev := range events {
		due := start.Add(ev.at)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
		}
		late[i] = ms(time.Since(due))
		end = send(i, &samples[i])
		idle()
	}
	return samples, late, end.Sub(start)
}
