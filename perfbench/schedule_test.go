package main

import (
	"testing"
	"time"
)

func TestScheduleCountAndSpacing(t *testing.T) {
	for _, c := range []struct {
		rate float64
		dur  time.Duration
		n    int
	}{
		{20000, 20 * time.Second, 400000},
		{120000, 20 * time.Second, 2400000},
		{150000, 1500 * time.Millisecond, 225000},
		{1000, time.Second, 1000},
	} {
		s := newSchedule(c.rate, c.dur)
		if s.n != c.n {
			t.Errorf("rate %v over %v: %d requests, want %d", c.rate, c.dur, s.n, c.n)
		}
		if s.due(0) != 0 {
			t.Errorf("rate %v: first request due at %v, want 0", c.rate, s.due(0))
		}
		if got := s.due(s.n); got < c.dur-time.Nanosecond || got > c.dur+time.Nanosecond {
			t.Errorf("rate %v: the schedule ends at %v, want %v", c.rate, got, c.dur)
		}
		gap := time.Duration(1e9 / c.rate)
		for _, g := range []int{0, 1, s.n / 2, s.n - 2} {
			if d := s.due(g+1) - s.due(g); d < gap-time.Nanosecond || d > gap+time.Nanosecond {
				t.Errorf("rate %v: gap after request %d is %v, want %v", c.rate, g, d, gap)
			}
		}
	}
}

// TestConnectionSplitCoversSchedule checks that the connections' shares of
// a schedule (g mod stride == id) add up to the whole schedule.
func TestConnectionSplitCoversSchedule(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000, 400001} {
		for _, stride := range []int{1, 2, 3, 8} {
			total := 0
			for id := 0; id < stride; id++ {
				d := &connGen{id: id, stride: stride, pc: &pacedConn{}}
				d.reset(schedule{rate: 1000, n: n}, time.Now(), 0, false)
				total += d.total
				if d.total > 0 && d.g(d.total-1) >= n {
					t.Errorf("n=%d stride=%d id=%d: last request %d is past the schedule", n, stride, id, d.g(d.total-1))
				}
			}
			if total != n {
				t.Errorf("n=%d stride=%d: connections send %d requests", n, stride, total)
			}
		}
	}
}
