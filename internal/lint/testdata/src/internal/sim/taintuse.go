package sim

import "fixture/internal/util"

// Calls that transitively reach the wall clock or the global rand source
// are violations inside simulated code; the diagnostic carries the
// witness chain.

// stampNow reaches time.Now through one hop (util.Stamp).
func stampNow() int64 { return util.Stamp() } // lintwant:wallclock

// stampTwo reaches it through two hops (util.StampTwice -> util.Stamp).
func stampTwo() int64 { return util.StampTwice() } // lintwant:wallclock

// jitter reaches the global rand source through util.Jitter.
func jitter() float64 { return util.Jitter() } // lintwant:rand

// bannerTime and bannerJitter are suppressed with a recorded reason.
//
//caislint:ignore wallclock startup banner, runs before the simulated timeline
func bannerTime() int64 { return stampNow() + stampTwo() }

//caislint:ignore rand startup banner, runs before the simulated timeline
func bannerJitter() float64 { return jitter() }
