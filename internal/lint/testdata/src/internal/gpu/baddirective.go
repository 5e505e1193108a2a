package gpu

// Malformed or stale directives are violations themselves. The lintwant+1
// markers expect the diagnostic on the directive's own line.

// lintwant+1:directive
//caislint:

// lintwant+1:directive
//caislint:frobnicate wallclock some reason

// lintwant+1:directive
//caislint:ignore

// lintwant+1:directive
//caislint:ignore nosuchcheck the check name is wrong

// lintwant+1:directive
//caislint:ignore rand

// ignore is the only verb: there are no file-wide waivers.
// lintwant+1:directive
//caislint:file-ignore units

// A directive names one check: a comma-separated list is an unknown name,
// with or without a reason.
// lintwant+1:directive
//caislint:ignore wallclock,nosuchcheck mixed list with an unknown check

// lintwant+1:directive
//caislint:ignore wallclock,rand

// A well-formed directive that suppresses nothing is stale.
// lintwant+1:directive
//caislint:ignore goroutine nothing here spawns a goroutine

/*caislint:ignore rand block comments never carry directives, so this is inert*/
