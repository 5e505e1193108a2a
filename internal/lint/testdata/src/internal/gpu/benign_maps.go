package gpu

import "sort"

// The loops in this file look order-independent, but only the first is
// the one idiom map-order accepts: collect the keys, then sort them. The
// rest are reported; each has a sorted-keys form that says the same thing.

// SortedKeys is the canonical collect-then-sort idiom.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Count accumulates integers, which is commutative.
func Count(m map[string][]int) int {
	n := 0
	for _, vs := range m { // lintwant:map-order
		n += len(vs)
	}
	return n
}

// Invert writes keys of another map. Two keys with one value make the
// surviving entry depend on iteration order.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m { // lintwant:map-order
		out[v] = k
	}
	return out
}

// MaxVal is a guarded max update.
func MaxVal(m map[string]int) int {
	best := 0
	for _, v := range m { // lintwant:map-order
		if v > best {
			best = v
		}
	}
	return best
}

// Found sets an idempotent constant.
func Found(m map[string]int) bool {
	hit := false
	for _, v := range m { // lintwant:map-order
		if v > 10 {
			hit = true
		}
	}
	return hit
}

// Prune deletes distinct keys from another map.
func Prune(m, other map[string]int) {
	for k := range m { // lintwant:map-order
		delete(other, k)
	}
}

// SkipSmall mixes continue, pure defines and integer counting, with a
// benign nested loop.
func SkipSmall(m map[string][]int) int {
	n := 0
	for _, vs := range m { // lintwant:map-order
		if len(vs) == 0 {
			continue
		}
		total := 0
		for _, v := range vs {
			total += v
		}
		if total < 3 {
			continue
		}
		n++
	}
	return n
}
