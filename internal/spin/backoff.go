package spin

import "time"

// Backoff is the one step of every retry loop that sleeps between attempts —
// the buffer manager's transient-fault retry, the TaMix restart of a deadlock
// victim and the client's redial: it returns the sleep before the next
// attempt, 50-150 % of the current step cur with the jitter drawn from rnd
// (rand.Int63n's contract), and the step after it, cur doubled up to max.
// The jitter keeps colliding retriers from retrying in lockstep.
func Backoff(cur, max time.Duration, rnd func(int64) int64) (sleep, next time.Duration) {
	sleep = cur/2 + time.Duration(rnd(int64(cur)))
	if next = 2 * cur; next > max {
		next = max
	}
	return sleep, next
}
