package gpu

import (
	"fmt"

	"cais/internal/kernel"
	"cais/internal/pool"
	"cais/internal/sim"
	"cais/internal/trace"
)

// Launch is one kernel instance executing on one GPU.
type Launch struct {
	K  *kernel.Kernel
	id int
	g  *GPU

	groupBase int
	limit     int // SM partition size (asymmetric kernel overlapping)
	active    int
	started   bool
	buffered  []int             // eligible TBs seen before the launch started
	ready     pool.Ring[*tbRun] // dispatchable deque (front = priority re-queue)
	remaining int

	onDone func()
}

// tbRun is one thread block's runtime state. Runs are pooled per GPU and
// recycled when the TB retires; the lifecycle transitions that used to be
// per-TB closures (dispatch -> pre-phase -> compute -> post-phase ->
// retire) run through a single cached step method value plus a next-state
// tag, so a recycled run schedules its whole lifecycle without allocating
// and the pooled object carries one closure instead of eight.
//
// The single-slot continuation is sound because a TB has exactly one
// outstanding continuation at any time: every site that schedules stepFn
// (event timer, sync-table release, access completion counter) sets next
// first, and the multi-shot counters (preDone / postIssued) keep next
// stable until their pending count drains.
type tbRun struct {
	g     *GPU
	l     *Launch
	tb    int
	desc  kernel.TBDesc
	group int // absolute group ID, -1 when ungrouped

	// loaded marks a coordinated TB whose pre-phase loads completed while
	// it was suspended: on re-dispatch it goes straight to compute.
	loaded bool
	// yielded marks a pre-phase that released its SM slot while the group
	// synchronizes: load completion then re-queues instead of computing.
	yielded bool
	// retireAfterPost: the direct post path still holds its SM slot and
	// must retire; the sync post path released it before waiting.
	retireAfterPost bool
	prePending      int // pre-phase accesses not yet completed
	postPending     int // post-phase accesses not yet fully issued

	// SM-residency trace bookkeeping (slotTid < 0 when untraced/yielded).
	slotTid   int32
	slotStart sim.Time

	// next selects what the cached stepFn does when it fires.
	next uint8
	// stepFn is the cached step method value (preserved across
	// Reset/reuse) — the only closure a pooled run carries.
	stepFn func()
}

// tbRun continuation states (values of tbRun.next).
const (
	stepFinish uint8 = iota
	stepPrePhase
	stepPostPhase
	stepReady
	stepPreLoad
	stepPreDone
	stepIssuePosts
	stepPostIssued
)

// step dispatches the run's pending continuation. Callers set r.next
// before handing stepFn to a timer, sync table, or access counter.
func (r *tbRun) step() {
	switch r.next {
	case stepFinish:
		r.g.finishTB(r.l, r)
	case stepPrePhase:
		r.g.tbPrePhase(r.l, r)
	case stepPostPhase:
		r.g.tbPostPhase(r.l, r)
	case stepReady:
		r.enqueueReady()
	case stepPreLoad:
		r.preLoad()
	case stepPreDone:
		r.preDone()
	case stepIssuePosts:
		r.issuePosts()
	case stepPostIssued:
		r.postIssued()
	}
}

// Reset clears per-TB state for pool reuse; the g back-pointer and cached
// step method value are the object's identity and survive.
func (r *tbRun) Reset() { *r = tbRun{g: r.g, stepFn: r.stepFn} }

// getRun pops a recycled run and (first time only) installs its step
// closure.
func (g *GPU) getRun(l *Launch) *tbRun {
	r := g.runs.Get()
	if r.g == nil {
		r.g = g
		r.stepFn = r.step
	}
	r.l = l
	r.group = -1
	r.slotTid = -1
	return r
}

// enqueueReady is the pre-launch sync release: releases arrive in
// admission order, so appending preserves the cross-GPU dispatch order
// (and keeps the home GPU's local-contribution TBs interleaved with their
// groups).
func (r *tbRun) enqueueReady() {
	r.l.ready.PushBack(r)
	r.g.trySchedule()
}

// preLoad is the pre-access sync release: issue every pre access with the
// shared completion counter.
func (r *tbRun) preLoad() {
	pre := r.desc.Pre
	r.prePending = len(pre)
	r.next = stepPreDone
	for i := range pre {
		r.g.issueAccess(&pre[i], r.group, r.l.K.Coord.Throttle, nil, r.stepFn)
	}
}

// preDone accounts one pre access completing. A yielded TB re-queues with
// priority (its data already arrived); a slot-holding TB starts compute.
func (r *tbRun) preDone() {
	r.prePending--
	if r.prePending != 0 {
		return
	}
	if r.yielded {
		r.loaded = true
		r.l.ready.PushFront(r)
		r.g.trySchedule()
		return
	}
	r.g.tbCompute(r.l, r)
}

// issuePosts issues every post access; the TB finishes when all are issued
// (posted-write semantics).
func (r *tbRun) issuePosts() {
	post := r.desc.Post
	if len(post) == 0 {
		r.postComplete()
		return
	}
	r.postPending = len(post)
	r.next = stepPostIssued
	for i := range post {
		r.g.issueAccess(&post[i], r.group, r.l.K.Coord.Throttle, r.stepFn, nil)
	}
}

// postIssued accounts one post access fully handed to the fabric.
func (r *tbRun) postIssued() {
	r.postPending--
	if r.postPending == 0 {
		r.postComplete()
	}
}

func (r *tbRun) postComplete() {
	if r.retireAfterPost {
		r.g.tbRetire(r.l, r)
		return
	}
	r.g.finishTB(r.l, r)
}

// Launch starts a kernel on this GPU. launchID, the machine-wide launch
// sequence number, seeds the per-launch jitter; groupBase offsets the
// kernel's TB-local group IDs into the Group Sync Table's global space;
// onDone fires when every TB has retired. The caller (machine layer) marks
// TBs eligible as their input tiles become ready.
func (g *GPU) Launch(k *kernel.Kernel, launchID, groupBase int, onDone func()) *Launch {
	if err := k.Validate(); err != nil {
		panic(fmt.Sprintf("gpu%d: %v", g.ID, err))
	}
	l := &Launch{
		K: k, id: launchID, g: g,
		groupBase: groupBase,
		limit:     g.partitionFor(k),
		remaining: k.Grid,
		onDone:    onDone,
	}
	rng := sim.NewRNG(sim.Hash64(g.seed, uint64(launchID)))
	jitter := rng.Between(0, g.hw.KernelLaunchJitter)
	g.launches = append(g.launches, l)
	g.eng.At(g.eng.Now()+g.hw.KernelLaunchOverhead+jitter, func() {
		l.started = true
		buffered := l.buffered
		l.buffered = nil
		for _, tb := range buffered {
			l.admit(tb)
		}
		g.trySchedule()
	})
	return l
}

// partitionFor sizes a kernel's SM partition.
func (g *GPU) partitionFor(k *kernel.Kernel) int {
	if k.CommSMs > 0 {
		if k.CommSMs > g.hw.SMsPerGPU {
			return g.hw.SMsPerGPU
		}
		return k.CommSMs
	}
	return g.hw.SMsPerGPU
}

// MarkEligible tells the launch that TB tb's input tiles are ready. The
// machine layer must call this exactly once per TB, in the same order on
// every GPU (our global tile tracker guarantees it); that shared order is
// what makes cross-GPU group synchronization deadlock-free.
func (l *Launch) MarkEligible(tb int) {
	if tb < 0 || tb >= l.K.Grid {
		panic(fmt.Sprintf("gpu%d: eligible tb %d out of grid %d", l.g.ID, tb, l.K.Grid))
	}
	if !l.started {
		l.buffered = append(l.buffered, tb)
		return
	}
	l.admit(tb)
	l.g.trySchedule()
}

// admit runs pre-launch synchronization (for a grouped TB of a kernel
// that coordinates it) and then queues the TB for dispatch. No-op TBs
// (empty slots of an SPMD grid whose work lives on another GPU) retire
// immediately without occupying an SM.
func (l *Launch) admit(tb int) {
	desc := l.K.Work(l.g.ID, tb)
	run := l.g.getRun(l)
	run.tb, run.desc = tb, desc
	if isNoop(desc) {
		run.next = stepFinish
		l.g.eng.After(0, run.stepFn)
		return
	}
	if desc.Group >= 0 {
		run.group = l.groupBase + desc.Group
	}
	if l.K.Coord.PreLaunch && run.group >= 0 {
		run.next = stepReady
		l.g.sync.Wait(run.group, PhasePreLaunch, desc.GroupPeers, run.stepFn)
		return
	}
	l.ready.PushBack(run)
}

// trySchedule dispatches dispatchable TBs onto free SM slots. Launches are
// served round-robin so concurrently-runnable kernels share the SM pool
// fairly — this is what lets asymmetric kernel overlapping co-run an
// uplink-heavy and a downlink-heavy kernel (Sec. III-C-2) — while
// per-launch partition limits still bound each kernel's footprint.
func (g *GPU) trySchedule() {
	for g.slotsFree > 0 {
		dispatched := false
		n := len(g.launches)
		for i := 0; i < n && g.slotsFree > 0; i++ {
			l := g.launches[(g.rrLaunch+i)%n]
			if !l.started || l.ready.Len() == 0 || l.active >= l.limit {
				continue
			}
			run := l.ready.PopFront()
			g.dispatch(l, run)
			g.rrLaunch = (g.rrLaunch + i + 1) % n
			dispatched = true
			break
		}
		if !dispatched {
			return
		}
	}
}

// dispatch runs one TB's lifecycle on an SM slot.
func (g *GPU) dispatch(l *Launch, run *tbRun) {
	g.slotsFree--
	l.active++
	g.slotAcquire(run)
	run.next = stepPrePhase
	g.eng.After(g.hw.TBOverhead, run.stepFn)
}

// slotAcquire assigns a free SM-slot trace track to a dispatched TB.
func (g *GPU) slotAcquire(run *tbRun) {
	if len(g.slotTids) == 0 {
		return
	}
	run.slotTid = g.slotTids[len(g.slotTids)-1]
	g.slotTids = g.slotTids[:len(g.slotTids)-1]
	run.slotStart = g.eng.Now()
}

// slotRelease frees the TB's SM slot, emits its SM-residency span and
// recycles its track. Residency spans cover dispatch-to-yield and
// dispatch-to-retire windows, so a coordinated TB that yields while its
// group synchronizes shows up as two spans — exactly the occupancy the SM
// scheduler sees.
func (g *GPU) slotRelease(l *Launch, run *tbRun) {
	g.slotsFree++
	l.active--
	if run.slotTid < 0 {
		return
	}
	g.tr.Span(g.pid, run.slotTid, trace.CatTB, l.K.Name, run.slotStart, g.eng.Now())
	g.slotTids = append(g.slotTids, run.slotTid)
	run.slotTid = -1
}

// tbPrePhase performs pre-access synchronization (for a grouped TB's
// loads) and issues the TB's load accesses; compute starts once all loads
// complete.
//
// Coordinated TBs do not hold the SM while waiting: the group release
// triggers the (aligned) load issue directly — the loads need no compute —
// and the TB re-acquires a slot with priority once its data arrived. This
// models the paper's latency hiding ("the warp scheduler can issue
// independent instructions", Sec. III-B-2) and keeps the aligned issue
// times that make request merging effective.
func (g *GPU) tbPrePhase(l *Launch, run *tbRun) {
	if run.loaded {
		g.tbCompute(l, run)
		return
	}
	if l.K.Coord.PreAccess && run.group >= 0 && len(run.desc.Pre) > 0 {
		run.yielded = true
		run.next = stepPreLoad
		g.sync.Wait(run.group, PhasePreLoad, run.desc.GroupPeers, run.stepFn)
		// Yield the slot while the group synchronizes and the data moves.
		g.slotRelease(l, run)
		g.trySchedule()
		return
	}
	if len(run.desc.Pre) == 0 {
		g.tbCompute(l, run)
		return
	}
	run.yielded = false
	run.preLoad()
}

// tbCompute occupies the SM for the roofline duration with calibrated
// noise, then moves to the post phase.
func (g *GPU) tbCompute(l *Launch, run *tbRun) {
	d := g.computeTime(l, run)
	run.next = stepPostPhase
	g.eng.After(d, run.stepFn)
}

// computeTime is the TB's roofline cost: max of compute and local-memory
// time, scaled by deterministic per-(gpu,launch,tb) execution noise.
func (g *GPU) computeTime(l *Launch, run *tbRun) sim.Time {
	flopsT := sim.DurationForFlops(run.desc.Flops, g.hw.SMFLOPs)
	memT := sim.Time(0)
	if run.desc.LocalBytes > 0 {
		perSM := g.hw.HBMBandwidth / float64(g.hw.SMsPerGPU)
		memT = sim.DurationForBytes(run.desc.LocalBytes, perSM)
	}
	d := flopsT
	if memT > d {
		d = memT
	}
	rng := sim.NewRNG(sim.Hash64(g.seed, uint64(l.id), uint64(run.tb)))
	d = sim.Scale(d, rng.Jitter(g.hw.TBTimeNoise))
	// Straggler fault injection: a slowed GPU scales its roofline TB cost.
	// The jitter RNG above is seeded independently of fault state, so a
	// faulted run perturbs only the magnitude, never the noise stream.
	if g.slowdown != 1 {
		d = sim.Scale(d, g.slowdown)
	}
	return d
}

// tbPostPhase performs pre-access synchronization for a grouped TB's
// reductions and issues the TB's write/reduction accesses; the TB retires
// once every post access has been issued (posted-write semantics —
// downstream dependencies are tracked at the home GPU).
func (g *GPU) tbPostPhase(l *Launch, run *tbRun) {
	if l.K.Coord.PreAccess && run.group >= 0 && len(run.desc.Post) > 0 {
		// Yield the SM while waiting for the group: issuing the posts
		// after the release needs no further compute, so the TB finishes
		// without re-acquiring a slot.
		g.slotRelease(l, run)
		g.TBsRun++
		run.retireAfterPost = false
		run.next = stepIssuePosts
		g.sync.Wait(run.group, PhasePreReduce, run.desc.GroupPeers, run.stepFn)
		g.trySchedule()
		return
	}
	run.retireAfterPost = true
	run.issuePosts()
}

// tbRetire frees the SM slot and finishes the TB.
func (g *GPU) tbRetire(l *Launch, run *tbRun) {
	g.slotRelease(l, run)
	g.TBsRun++
	g.finishTB(l, run)
}

// finishTB publishes the TB's output tiles through the host and completes
// the launch when the grid drains. isNoop TBs come here directly without
// ever holding an SM slot.
func (g *GPU) finishTB(l *Launch, run *tbRun) {
	// The run's lifecycle ends here: recycle it before publishing and the
	// scheduling sweep so the next admitted TB can reuse it. The Out tile
	// list comes from the admission-time descriptor, so publishing never
	// re-runs Work.
	out := run.desc.Out
	g.runs.Put(run)
	g.host.PublishTiles(out)
	l.remaining--
	if l.remaining == 0 {
		g.removeLaunch(l)
		if l.onDone != nil {
			l.onDone()
		}
	}
	g.trySchedule()
}

// isNoop reports whether a TB descriptor carries no work at all: such TBs
// are the empty slots of an SPMD grid (the block's work lives on another
// GPU) and retire without occupying an SM.
func isNoop(d kernel.TBDesc) bool {
	return d.Flops == 0 && d.LocalBytes == 0 &&
		len(d.Pre) == 0 && len(d.Post) == 0
}

func (g *GPU) removeLaunch(l *Launch) {
	for i, x := range g.launches {
		if x == l {
			g.launches = append(g.launches[:i], g.launches[i+1:]...)
			return
		}
	}
}

// ActiveLaunches reports how many launches are in flight.
func (g *GPU) ActiveLaunches() int { return len(g.launches) }
