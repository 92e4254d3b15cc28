package main

import "time"

// schedule is a fixed arrival schedule: request i is due at
// start + i*interval, whatever happened to the requests before it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, perSecond float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// due is when request i should be sent.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// wait sleeps until request i is due and returns its due time. A sender
// that has fallen behind does not sleep, so it catches up back to back.
func (s schedule) wait(i int) time.Time {
	due := s.due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return due
}

// paced is the accounting of one scheduled request. Latency runs from the
// due time, not the send time, so a stall is charged to every request it
// delayed; lateness is how far behind schedule the generator itself sent.
type paced struct {
	latency  time.Duration
	lateness time.Duration
}

func account(due, sent, done time.Time) paced {
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return paced{latency: done.Sub(due), lateness: late}
}
