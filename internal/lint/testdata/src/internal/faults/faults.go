// Package faults declares an enum-like const block — a named integer
// type with several package-level constants — for the exhaustive check.
package faults

// Kind is the fixture enum.
type Kind int

// Enum members. KindAlias shares KindC's value: covering either name
// covers both, and a switch missing both reports the canonical name once.
const (
	KindA Kind = iota
	KindB
	KindC
	KindAlias = KindC
)

// String misses KindC (and its alias): one diagnostic.
func (k Kind) String() string {
	switch k { // lintwant:exhaustive
	case KindA:
		return "a"
	case KindB:
		return "b"
	}
	return "kind(?)"
}

// Short carries an explicit default clause: exempt by design.
func Short(k Kind) string {
	switch k {
	case KindA:
		return "a"
	default:
		return "-"
	}
}

// labels misses KindB; a map literal has no default escape hatch.
var labels = map[Kind]string{ // lintwant:exhaustive
	KindA: "a",
	KindC: "c",
}

// allLabels covers every constant value (KindC via its alias): clean.
var allLabels = map[Kind]string{
	KindA:     "a",
	KindB:     "b",
	KindAlias: "c",
}

// Grouped is suppressed with a recorded reason; the directive covers the
// switch line below it, where the diagnostic lands.
func Grouped(k Kind) int {
	//caislint:ignore exhaustive KindB and KindC share the caller's fallback path
	switch k {
	case KindA:
		return 1
	}
	return 0
}

// Use keeps the package-level literals referenced.
func Use(k Kind) string { return labels[k] + allLabels[k] }
