package gpu

import (
	"fmt"
	"time"
)

// Multiline pins a directive's reach: its own line and the next, never
// the rest of a multi-line statement. The wall-clock read two lines below
// the directive is reported, and the directive, having suppressed
// nothing, is stale.
func Multiline() string {
	// lintwant+1:directive
	//caislint:ignore wallclock covers two lines, not the whole statement
	return fmt.Sprintf("started %v",
		time.Now()) // lintwant:wallclock
}
