package main

import "time"

// pacer is an open-loop generator: event k is due at start + k/rate whether
// or not the system kept up with the events before it. push is synchronous,
// so a push that stalls makes the generator itself run late; the events
// still carry their due time as creation time, which charges the stall to
// the events that had to wait for it, and how late the generator ran is
// reported beside the latencies.
type pacer struct {
	rate  float64 // events per second
	now   func() time.Time
	sleep func(time.Duration)
}

func newPacer(rate float64) *pacer {
	return &pacer{rate: rate, now: time.Now, sleep: time.Sleep}
}

// run pushes n events and returns, per event, how long after its due time
// its push began. It stops at push's first error.
func (p *pacer) run(n int, push func(k int, due time.Time) error) ([]time.Duration, error) {
	start := p.now()
	late := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / p.rate * float64(time.Second)))
		if wait := due.Sub(p.now()); wait > 0 {
			p.sleep(wait)
		}
		late = append(late, max(p.now().Sub(due), 0))
		if err := push(k, due); err != nil {
			return late, err
		}
	}
	return late, nil
}

// backlog is how many events were due but not yet pushed at the moment the
// last push began: the generator's lateness there, in events.
func (p *pacer) backlog(late []time.Duration) int {
	if len(late) == 0 {
		return 0
	}
	return int(late[len(late)-1].Seconds() * p.rate)
}
