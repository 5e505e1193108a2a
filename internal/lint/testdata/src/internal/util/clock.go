package util

import (
	"math/rand"
	"time"
)

// Stamp wraps the wall clock. The ignore below silences the wallclock
// check at this definition only — every call site in simulated code is
// still flagged, so the helper cannot launder time.Now.
//
//caislint:ignore wallclock audited for CLI status output, never simulation
func Stamp() int64 { return time.Now().UnixNano() }

// StampTwice reaches the wall clock through Stamp. util is not a
// sanctioned package, so both call sites here are wallclock violations
// themselves, and StampTwice propagates the taint one hop further.
func StampTwice() int64 { return Stamp() + Stamp() } // lintwant:wallclock lintwant:wallclock

// Jitter wraps the unseeded global source: the rand check fires at the
// definition and at every caller.
func Jitter() float64 { return rand.Float64() } // lintwant:rand
