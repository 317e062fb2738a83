package main

import (
	"math/rand"
	"time"
)

// poissonSchedule returns the due times (offsets from the start) of an
// open-loop arrival process at rate per second over the horizon:
// exponential gaps from a source seeded by seed, so equal seeds give
// equal schedules.
func poissonSchedule(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= horizon {
			return due
		}
		due = append(due, at)
	}
}

// timing is one open-loop job's clock readings, as offsets from the
// start: when it was due, when the generator got to send it, and when its
// terminal state was seen.
type timing struct {
	due, sent, done time.Duration
}

// latency is timed from the due time, so a stall charges the jobs queued
// behind it for the wait it imposed on them.
func (t timing) latency() time.Duration { return t.done - t.due }

// late is how far behind schedule the generator sent the job.
func (t timing) late() time.Duration { return t.sent - t.due }

// backlogAtEnd counts the jobs still unfinished when the last arrival
// fell due: 0 means the system kept up with the schedule to its end.
func backlogAtEnd(ts []timing) int {
	if len(ts) == 0 {
		return 0
	}
	end := ts[len(ts)-1].due
	n := 0
	for _, t := range ts[:len(ts)-1] {
		if t.done > end {
			n++
		}
	}
	return n
}
