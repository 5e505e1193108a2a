package sim

// retryMaxDelay caps the doubling retry ladder.
const retryMaxDelay = 64 * Microsecond

// Retry invokes attempt until it reports success: once synchronously, then
// as engine events after 1, 2, 4 ... microseconds, the delay doubling up to
// a 64 µs cap. There is no jitter by design: retry timing must be
// bit-reproducible, and the caller already gets de-correlation from the
// simulated system state (queue depths, link repairs) rather than from
// randomness. There is no attempt budget either: the caller must guarantee
// eventual success, e.g. a fault schedule that repairs the resource being
// waited on. This is the timeout/retry primitive the fault re-routing path
// uses: re-registering a sync group after a switch-plane failure retries
// until the surviving plane's uplink is back up.
func Retry(eng *Engine, attempt func() bool) {
	delay := Microsecond
	var try func()
	try = func() {
		if attempt() {
			return
		}
		eng.After(delay, try)
		delay = min(2*delay, retryMaxDelay)
	}
	try()
}
