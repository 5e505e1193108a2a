package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// The engine keeps pending events in a heap and in delay-keyed FIFO lanes.
// These tests hold the pair to the one contract callers see: events run in
// (at, seq) order, exactly as a single sorted queue would run them.

// orderDelays are the order schedules' recurring delays. There are more of
// them than lanes, so slots collide, drain and take up new delays, and they
// lie on a 10 ps grid, so events of different delays often share an instant.
var orderDelays = []Time{10, 20, 30, 50, 70, 110, 130, 170, 190, 230, 250,
	290, 310, 370, 410, 430, 470, 530, 590, 610, 670, 710}

// successors is the draw for how many events a running event schedules:
// 0 to 3, with a mean just over one, so the pending set rises and falls.
var successors = [...]int{0, 0, 0, 1, 1, 1, 1, 2, 2, 3}

// stamp is what an executed event records: its time and its sequence
// number, the count of At calls up to and including its own.
type stamp struct {
	at  Time
	seq uint64
}

// queue is what a schedule needs from an event queue; Engine and refQueue
// both provide it.
type queue interface {
	Now() Time
	At(t Time, fn func())
	Run() Time
}

// schedule is a random event workload. Each event records its stamp when it
// runs and schedules 0–3 successors until the budget of events is spent.
// Its choices depend only on the seed and on the order in which its events
// run, so two queues that run it in the same order record the same stamps.
type schedule struct {
	rng    *RNG
	weight [4]int // recurring delay, one-off delay, zero delay, absolute At
	budget int
	seq    uint64
	ran    []stamp
}

func newSchedule(seed uint64, budget int, weight [4]int) *schedule {
	return &schedule{rng: NewRNG(seed), weight: weight, budget: budget}
}

// next draws the time of an event scheduled at now.
func (s *schedule) next(now Time) Time {
	total := s.weight[0] + s.weight[1] + s.weight[2] + s.weight[3]
	k := s.rng.Intn(total)
	switch {
	case k < s.weight[0]:
		return now + orderDelays[s.rng.Intn(len(orderDelays))]
	case k < s.weight[0]+s.weight[1]:
		return now + s.rng.Between(1, Microsecond)
	case k < s.weight[0]+s.weight[1]+s.weight[2]:
		return now
	default:
		// An absolute instant on a 1 ns grid, which many events share.
		return (now/Nanosecond + 1 + Time(s.rng.Intn(3))) * Nanosecond
	}
}

// play runs the schedule on q from 64 root events and returns Run's result.
func (s *schedule) play(q queue) Time {
	var spawn func(at Time)
	spawn = func(at Time) {
		s.seq++
		seq := s.seq
		q.At(at, func() {
			s.ran = append(s.ran, stamp{q.Now(), seq})
			for k := successors[s.rng.Intn(len(successors))]; k > 0 && s.budget > 0; k-- {
				s.budget--
				spawn(s.next(q.Now()))
			}
		})
	}
	for i := 0; i < 64 && s.budget > 0; i++ {
		s.budget--
		spawn(s.next(0))
	}
	return q.Run()
}

// refQueue is the reference: pending events in one slice kept sorted by
// (at, seq), run from the front.
type refQueue struct {
	now     Time
	seq     uint64
	pending []event
}

func (r *refQueue) Now() Time { return r.now }

func (r *refQueue) At(t Time, fn func()) {
	r.seq++
	ev := event{at: t, seq: r.seq, fn: fn}
	i := sort.Search(len(r.pending), func(i int) bool { return ev.before(&r.pending[i]) })
	r.pending = slices.Insert(r.pending, i, ev)
}

func (r *refQueue) Run() Time {
	for len(r.pending) > 0 {
		ev := r.pending[0]
		r.pending = r.pending[1:]
		r.now = ev.at
		ev.fn()
	}
	return r.now
}

// laneCounter is an Engine that counts the events At puts in a lane and
// the times a lane takes up a new delay.
type laneCounter struct {
	*Engine
	toLanes, adoptions int
}

func (c *laneCounter) At(t Time, fn func()) {
	i := laneSlot(t - c.now)
	n, d := c.heap.len(), c.lanes[i].d
	c.Engine.At(t, fn)
	if c.heap.len() == n {
		c.toLanes++
	}
	if c.lanes[i].d != d {
		c.adoptions++
	}
}

// checkOrder plays one schedule on the engine and on the reference and
// fails unless both ran the same events in the same order to the same end.
func checkOrder(t *testing.T, q queue, seed uint64, budget int, weight [4]int) {
	t.Helper()
	ref := newSchedule(seed, budget, weight)
	refEnd := ref.play(&refQueue{})
	got := newSchedule(seed, budget, weight)
	end := got.play(q)
	for i := range min(len(got.ran), len(ref.ran)) {
		if got.ran[i] != ref.ran[i] {
			t.Fatalf("seed %#x: event %d ran as %+v, reference %+v", seed, i, got.ran[i], ref.ran[i])
		}
	}
	if len(got.ran) != len(ref.ran) || end != refEnd {
		t.Fatalf("seed %#x: ran %d events to %v, reference %d to %v", seed, len(got.ran), end, len(ref.ran), refEnd)
	}
}

// TestEngineOrderMatchesReference runs random schedules, mixing recurring,
// one-off and zero delays with absolute times, and requires the engine to
// run them exactly as the sorted reference does. It also checks that the
// schedules exercise what they are meant to: events in lanes and in the
// heap, and lanes that drain and take up another delay.
func TestEngineOrderMatchesReference(t *testing.T) {
	var toLanes, adoptions, steps int
	for seed := uint64(1); seed <= 40; seed++ {
		c := &laneCounter{Engine: NewEngine()}
		checkOrder(t, c, seed, 3000, [4]int{14, 2, 2, 2})
		if c.Steps() != 3000 {
			t.Fatalf("seed %d: engine counted %d steps, want 3000", seed, c.Steps())
		}
		toLanes += c.toLanes
		adoptions += c.adoptions
		steps += int(c.Steps())
	}
	t.Logf("%d of %d events went to a lane; lanes took up a delay %d times", toLanes, steps, adoptions)
	if toLanes < steps/4 || toLanes > steps*9/10 {
		t.Errorf("%d of %d events went to a lane; the schedules should load both lanes and heap", toLanes, steps)
	}
	if adoptions < 40*(1<<laneBits) {
		t.Errorf("lanes took up a delay only %d times over 40 schedules; the schedules should make them re-adopt", adoptions)
	}
}

// TestEngineRunsEventAtMaxTime runs events at the largest Time from the
// heap and from a lane: no time value may stand for an empty queue.
func TestEngineRunsEventAtMaxTime(t *testing.T) {
	const end = Time(math.MaxInt64)
	e := NewEngine()
	var ran []string
	// The first miss at the delay's slot goes to the heap, the second makes
	// the lane take the delay up.
	e.At(end, func() { ran = append(ran, "heap") })
	e.At(end, func() {
		ran = append(ran, "lane")
		e.After(0, func() { ran = append(ran, "zero delay") })
	})
	if e.heap.len() != 1 || e.live == 0 {
		t.Fatalf("heap holds %d events and the live lane mask is %b; want one event in each", e.heap.len(), e.live)
	}
	if got := e.Run(); got != end {
		t.Fatalf("Run returned %v, want %v", got, end)
	}
	if want := []string{"heap", "lane", "zero delay"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %q, want %q", ran, want)
	}
}

// TestEngineStepLimitAndProgressWithLanes checks that the progress
// heartbeat and the step limit count events exactly as before the lanes:
// beat k reports the k-th event of the reference order, and a limit of n
// stops the engine at the reference's event n+1.
func TestEngineStepLimitAndProgressWithLanes(t *testing.T) {
	const seed, budget, every, limit = 0xCA15, 2000, 7, 1234
	weight := [4]int{14, 2, 2, 2}
	ref := newSchedule(seed, budget, weight)
	ref.play(&refQueue{})

	c := &laneCounter{Engine: NewEngine()}
	var beats []stamp
	c.SetProgress(every, func(now Time, steps uint64) { beats = append(beats, stamp{now, steps}) })
	newSchedule(seed, budget, weight).play(c)
	if c.toLanes == 0 {
		t.Fatal("no event went to a lane")
	}
	if len(beats) != len(ref.ran)/every {
		t.Fatalf("%d progress beats, want %d", len(beats), len(ref.ran)/every)
	}
	for k, b := range beats {
		if want := (stamp{ref.ran[(k+1)*every-1].at, uint64((k + 1) * every)}); b != want {
			t.Fatalf("beat %d reported (now %v, steps %d), want (%v, %d)", k, b.at, b.seq, want.at, want.seq)
		}
	}

	e := NewEngine()
	e.SetStepLimit(limit)
	s := newSchedule(seed, budget, weight)
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		s.play(e)
		return nil
	}()
	if want := fmt.Sprintf("sim: step limit %d exceeded at t=%v", limit, ref.ran[limit].at); msg != want {
		t.Fatalf("step limit panicked with %v, want %q", msg, want)
	}
	if !slices.Equal(s.ran, ref.ran[:limit]) {
		t.Fatalf("ran %d events before the limit, want the reference's first %d", len(s.ran), limit)
	}
}

// FuzzEngineOrder holds every schedule to the reference order. The fuzzer
// picks the seed, the event budget (up to 4095) and the mix: the low three
// bits weight recurring delays, the next two one-off delays, one bit zero
// delays and the top two absolute times.
func FuzzEngineOrder(f *testing.F) {
	f.Add(uint64(0xCA15), uint16(3000), uint8(0b01_1_01_101))
	f.Add(uint64(1), uint16(4095), uint8(0b00_0_00_111)) // recurring delays only
	f.Add(uint64(7), uint16(2000), uint8(0b00_0_11_000)) // mostly one-off delays
	f.Add(uint64(3), uint16(1000), uint8(0b11_1_00_000)) // instants: zero delays and absolute times
	f.Add(uint64(42), uint16(64), uint8(0xFF))
	f.Fuzz(func(t *testing.T, seed uint64, budget uint16, mix uint8) {
		weight := [4]int{1 + int(mix&7), int(mix>>3) & 3, int(mix>>5) & 1, int(mix >> 6)}
		checkOrder(t, NewEngine(), seed, int(budget%4096), weight)
	})
}
