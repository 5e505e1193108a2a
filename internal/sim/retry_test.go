package sim

import "testing"

func TestRetryFirstAttemptImmediate(t *testing.T) {
	eng := NewEngine()
	calls := 0
	Retry(eng, func() bool {
		calls++
		return true
	})
	if calls != 1 {
		t.Fatalf("attempt ran %d times before Run, want 1 (synchronous first attempt)", calls)
	}
	if eng.heap.len() != 0 {
		t.Fatalf("successful first attempt left %d events pending", eng.heap.len())
	}
}

// TestRetryExponentialSpacing pins the whole ladder: delays of 1, 2, 4 ...
// µs, doubling until they meet the 64 µs cap exactly.
func TestRetryExponentialSpacing(t *testing.T) {
	eng := NewEngine()
	var at []Time
	Retry(eng, func() bool {
		at = append(at, eng.Now())
		return len(at) == 9
	})
	eng.Run()
	want := []Time{0, 1, 3, 7, 15, 31, 63, 127, 191}
	if len(at) != len(want) {
		t.Fatalf("got %d attempts, want %d", len(at), len(want))
	}
	for i := range want {
		if at[i] != want[i]*Microsecond {
			t.Errorf("attempt %d at %v, want %vus", i+1, at[i], want[i])
		}
	}
}

// TestRetryMaxCapsDelay: once the ladder reaches the cap, every later
// delay stays at 64 µs, however long the chain runs.
func TestRetryMaxCapsDelay(t *testing.T) {
	eng := NewEngine()
	var at []Time
	Retry(eng, func() bool {
		at = append(at, eng.Now())
		return len(at) == 40
	})
	eng.Run()
	for i := 8; i < len(at); i++ {
		if gap := at[i] - at[i-1]; gap != retryMaxDelay {
			t.Errorf("delay before attempt %d = %v, want the %v cap", i+1, gap, retryMaxDelay)
		}
	}
}

func TestRetryUnlimitedUntilSuccess(t *testing.T) {
	eng := NewEngine()
	attempts := 0
	Retry(eng, func() bool {
		attempts++
		return attempts == 20
	})
	eng.Run()
	if attempts != 20 {
		t.Errorf("ran %d attempts, want 20", attempts)
	}
	if eng.heap.len() != 0 {
		t.Errorf("success left %d events pending", eng.heap.len())
	}
}
