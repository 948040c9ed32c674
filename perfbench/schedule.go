package main

import "time"

// schedule is an open-loop arrival schedule: request g (0 <= g < n) is due
// g/rate seconds after the schedule starts. Due times are computed, never
// stored, so a schedule of any length costs the same few bytes.
type schedule struct {
	rate float64 // requests per second
	n    int     // requests in the schedule
}

// newSchedule returns the schedule of a rate held for dur.
func newSchedule(rate float64, dur time.Duration) schedule {
	return schedule{rate: rate, n: int(rate * dur.Seconds())}
}

// due returns request g's due time as an offset from the schedule start.
func (s schedule) due(g int) time.Duration {
	return time.Duration(float64(g) * 1e9 / s.rate)
}
