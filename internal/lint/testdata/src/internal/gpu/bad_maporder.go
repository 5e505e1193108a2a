package gpu

// Each loop below is order-dependent in a different way.

func process(string) {}

// OffenderCall calls a function per element.
func OffenderCall(m map[string]int) {
	for k := range m { // lintwant:map-order
		process(k)
	}
}

// OffenderAppendComputed appends a derived value, leaking map order into
// slice order.
func OffenderAppendComputed(m map[string]int) []int {
	var out []int
	for _, v := range m { // lintwant:map-order
		out = append(out, v*2)
	}
	return out
}

// OffenderReturn returns whichever element iterates first.
func OffenderReturn(m map[string]int) int {
	for _, v := range m { // lintwant:map-order
		return v
	}
	return 0
}

// OffenderFloat accumulates floats, which is non-associative.
func OffenderFloat(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // lintwant:map-order
		sum += v
	}
	return sum
}

// OffenderBreak stops at an arbitrary element.
func OffenderBreak(m map[string]int) int {
	n := 0
	for range m { // lintwant:map-order
		n++
		break
	}
	return n
}

// OffenderAssign overwrites a single variable per element.
func OffenderAssign(m map[string]int) int {
	last := 0
	for _, v := range m { // lintwant:map-order
		last = v
	}
	return last
}

// OffenderCollectValues collects the value variable: the slice's order
// is the map's.
func OffenderCollectValues(m map[string]int) []int {
	var vals []int
	for _, v := range m { // lintwant:map-order
		vals = append(vals, v)
	}
	return vals
}

// OffenderLastValue collects only keys, but binds the value variable too,
// so v leaves the loop holding whichever value came last.
func OffenderLastValue(m map[string]int) ([]string, int) {
	var keys []string
	var k string
	v := 0
	for k, v = range m { // lintwant:map-order
		keys = append(keys, k)
	}
	return keys, v
}
