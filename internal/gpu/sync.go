package gpu

import (
	"fmt"
	"sort"

	"cais/internal/noc"
	"cais/internal/pool"
	"cais/internal/sim"
	"cais/internal/trace"
)

// Sync phases of the TB-group coordination protocol (Sec. III-B-2).
const (
	// PhasePreLaunch aligns TB dispatch across GPUs.
	PhasePreLaunch = 0
	// PhasePreLoad aligns a grouped TB's loads (its Pre accesses).
	PhasePreLoad = 1
	// PhasePreReduce aligns a grouped TB's reductions (its Post accesses).
	PhasePreReduce = 2
)

func phaseName(phase int) string {
	switch phase {
	case PhasePreLaunch:
		return "pre-launch"
	case PhasePreLoad:
		return "pre-load"
	case PhasePreReduce:
		return "pre-reduce"
	}
	return fmt.Sprintf("phase%d", phase)
}

type syncKey struct {
	group int
	phase int
}

// pendingWait is one outstanding sync registration: the resume closure
// plus the plane the registration was sent to, so a plane failure can
// re-register exactly the waits that were routed to the dead plane. span
// is the wait's async trace span ID (0 when untraced); the int32 counts
// keep the record at 24 bytes.
type pendingWait struct {
	fn       func()
	plane    int32
	expected int32
	span     uint64
}

// Reset clears the wait for pool reuse.
func (w *pendingWait) Reset() { *w = pendingWait{} }

// Synchronizer is the per-GPU module of Fig. 8b: it registers TB groups
// with the switch's Group Sync Table by exchanging lightweight empty
// packets (one request, one release, ~0.5 us round trip) and resumes the
// waiting TB when the release arrives.
type Synchronizer struct {
	g       *GPU
	waiting map[syncKey]*pendingWait
	waits   pool.Pool[pendingWait, *pendingWait]
	// lenient tolerates releases for unknown keys (plane failover can
	// deliver a stale release after a wait was re-registered and released
	// by the surviving plane). Off by default: healthy runs keep the
	// strict single-release invariant.
	lenient bool

	Reregistrations int64 // waits re-sent after a routing change (fault stats)
	Retries         int64 // re-registration attempts deferred by a down uplink
	StaleReleases   int64 // duplicate releases tolerated in lenient mode
}

func newSynchronizer(g *GPU) *Synchronizer {
	return &Synchronizer{g: g, waiting: make(map[syncKey]*pendingWait)}
}

// SetLenient arms failover tolerance for duplicate releases. The injector
// enables it only for schedules containing a plane failure.
func (s *Synchronizer) SetLenient(on bool) { s.lenient = on }

// register sends the Group Sync Table registration packet on a plane.
func (s *Synchronizer) register(group, phase, expected, plane int) {
	req := s.g.pkts.Get()
	req.Op = noc.OpSyncRequest
	req.Addr, req.Group = uint64(phase), group
	req.Src, req.Dst, req.Contribs = s.g.ID, -1, expected
	s.g.up[plane].Send(req)
}

// Wait registers the TB group for the given phase and calls fn when the
// switch releases the group. Exactly one TB per (group, phase) may wait on
// a given GPU — that is the group invariant established by the compiler.
func (s *Synchronizer) Wait(group, phase, expected int, fn func()) {
	key := syncKey{group: group, phase: phase}
	if _, dup := s.waiting[key]; dup {
		panic(fmt.Sprintf("gpu%d: duplicate sync wait for group %d phase %d", s.g.ID, group, phase))
	}
	// Sync traffic routes on the group's deterministic plane so all GPUs
	// of a group meet at the same Group Sync Table.
	plane := s.g.host.RouteGroup(group)
	w := s.waits.Get()
	w.fn, w.plane, w.expected = fn, int32(plane), int32(expected)
	if tr := s.g.tr; tr.Enabled() {
		// Barrier waits overlap freely per GPU, so they trace as async
		// spans: register-to-release per (group, phase). Release ends it.
		w.span = tr.NextID()
		tr.BeginAsync(s.g.pid, trace.CatSync, phaseName(phase), w.span, s.g.eng.Now())
	}
	s.waiting[key] = w
	s.register(group, phase, expected, plane)
}

// Resync re-registers every pending wait whose registered plane no longer
// matches the current group routing — the recovery sweep the machine runs
// when a plane fails (or comes back and routing reverts). Each
// re-registration retries with exponential backoff while the target
// plane's uplink is down, so a simultaneous link-down fault only delays
// recovery instead of wedging it.
func (s *Synchronizer) Resync() {
	if len(s.waiting) == 0 {
		return
	}
	keys := make([]syncKey, 0, len(s.waiting))
	for k := range s.waiting {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].phase < keys[j].phase
	})
	for _, k := range keys {
		w := s.waiting[k]
		if w == nil || s.g.host.RouteGroup(k.group) == int(w.plane) {
			continue
		}
		s.Reregistrations++
		key := k
		sim.Retry(s.g.eng, func() bool {
			// Re-fetch on every attempt: waits are pooled, so pointer
			// identity cannot distinguish "still waiting" from "released
			// and re-registered" — the registered plane can.
			cur, ok := s.waiting[key]
			if !ok {
				return true // released while backing off; nothing to do
			}
			plane := s.g.host.RouteGroup(key.group)
			if int(cur.plane) == plane {
				return true // already on the live plane
			}
			if link := s.g.up[plane]; link == nil || link.Down() {
				s.Retries++
				return false
			}
			cur.plane = int32(plane)
			s.register(key.group, key.phase, int(cur.expected), plane)
			return true
		})
	}
}

// Release resumes the TB waiting on (group, phase).
func (s *Synchronizer) Release(group, phase int) {
	key := syncKey{group: group, phase: phase}
	w, ok := s.waiting[key]
	if !ok {
		if s.lenient {
			s.StaleReleases++
			return
		}
		panic(fmt.Sprintf("gpu%d: release for unknown sync group %d phase %d", s.g.ID, group, phase))
	}
	delete(s.waiting, key)
	fn, span := w.fn, w.span
	s.waits.Put(w)
	if tr := s.g.tr; tr.Enabled() {
		tr.EndAsync(s.g.pid, trace.CatSync, phaseName(phase), span, s.g.eng.Now())
	}
	fn()
}

// Pending reports how many sync waits are outstanding.
func (s *Synchronizer) Pending() int { return len(s.waiting) }

// Throttle implements TB-aware request throttling (Sec. III-B-2): a FIFO
// window on the GPU's outstanding mergeable request bytes (the paper's
// Sec. V-C-2 footprint bound), released by the switch's acceptance
// credits. It does not pace by rate: any per-GPU serialized regulator
// would perturb the alignment the group synchronization establishes (GPU
// streams differ by data ownership).
type Throttle struct {
	window int64 // outstanding-bytes bound; <= 0 disables
	out    int64
	queue  pool.Ring[throttleReq]
}

type throttleReq struct {
	bytes int64
	fn    func()
}

func newThrottle(window int64) *Throttle { return &Throttle{window: window} }

// Acquire runs fn once the outstanding window allows; FIFO order is
// preserved.
func (t *Throttle) Acquire(bytes int64, fn func()) {
	t.queue.PushBack(throttleReq{bytes: bytes, fn: fn})
	t.pump()
}

func (t *Throttle) pump() {
	for t.queue.Len() > 0 {
		head := t.queue.Head()
		// An idle window always grants so an oversize request cannot
		// starve.
		if t.window > 0 && t.out > 0 && t.out+head.bytes > t.window {
			return // a Release will re-pump
		}
		t.queue.PopFront()
		t.out += head.bytes
		head.fn()
	}
}

// Release returns outstanding-window space (switch acceptance credit).
func (t *Throttle) Release(bytes int64) {
	if t.window <= 0 {
		return
	}
	t.out -= bytes
	if t.out < 0 {
		panic("gpu: throttle window underflow")
	}
	t.pump()
}
