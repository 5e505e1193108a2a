package machine

import (
	"errors"
	"fmt"

	"cais/internal/gpu"
	"cais/internal/kernel"
	"cais/internal/sim"
	"cais/internal/trace"
)

// launchKernel starts kernel k on every GPU (SPMD) in launch wave wave and
// wires TB-level dependencies through the global tile tracker. onDone
// fires when the kernel has retired on all GPUs.
func (m *Machine) launchKernel(k *kernel.Kernel, wave int, onDone func()) {
	if err := k.Validate(); err != nil {
		panic(err)
	}
	m.nextLaunchID++
	launchID := m.nextLaunchID
	groupBase := m.nextGroupBase
	m.nextGroupBase += k.Grid

	span := &KernelSpan{Name: k.Name, Kind: k.Kind, Wave: wave, Start: m.Eng.Now()}
	m.KernelSpans = append(m.KernelSpans, span)
	var traceID uint64
	if m.tr.Enabled() {
		// Kernels overlap (asymmetric kernel overlapping), so they trace as
		// async spans on the machine process.
		traceID = m.tr.NextID()
		m.tr.BeginAsync(trace.PIDMachine, "kernel", k.Name, traceID, span.Start)
	}
	// A pooled latch counts per-GPU completions into one pooled
	// completion record: the per-kernel closures this replaces were the
	// largest machine-layer allocation after the tile tracker.
	done := m.getKernelDone()
	done.span, done.traceID, done.onDone = span, traceID, onDone
	latch := m.latches.Get(len(m.GPUs), done.fireFn)
	doneFn := latch.DoneFunc()
	launches := m.launchScratch[:0]
	for g := range m.GPUs {
		launches = append(launches, m.GPUs[g].Launch(k, launchID, groupBase, doneFn))
	}
	// Register input dependencies after all launches exist so publishes
	// triggered by eligibility cascades see a consistent tracker. The
	// iteration order (gpu-major, then tb) is deterministic and identical
	// across runs; per-GPU relative TB order is identical across GPUs,
	// which keeps cross-GPU group synchronization deadlock-free.
	//
	// Each registration descriptor is transient — registerTB only reads
	// its tiles to find their slots — so the arena space every Work
	// call allocates here is rewound immediately. Admission-time Work
	// calls (once the launch starts, strictly later) run outside any Mark
	// window and their slices stay live for the machine's lifetime.
	for g := range m.GPUs {
		for tb := 0; tb < k.Grid; tb++ {
			tm, am := m.tiles.Mark(), m.accs.Mark()
			m.registerTB(launches[g], tb, k.Work(g, tb).In)
			m.tiles.Rewind(tm)
			m.accs.Rewind(am)
		}
	}
	m.launchScratch = launches[:0]
}

// RunStages executes a staged plan, the one way kernels run: each stage's
// kernels launch together (launchAll) once every kernel of the previous
// stage has retired on all GPUs. It drains the event queue and returns
// when the final stage finished and when the queue drained — posted
// writes may still land after the last thread block retires. Every
// return carries the quiescence audit's error: a plan that completed
// but left a waiter, a sync wait, a launch or a reduction counter open
// fails like a plan that never finished.
func (m *Machine) RunStages(stages [][]*kernel.Kernel) (done, drained sim.Time, err error) {
	completed := false
	m.Eng.At(0, func() {
		var step func(i int)
		step = func(i int) {
			if i >= len(stages) {
				completed = true
				done = m.Eng.Now()
				return
			}
			m.launchAll(stages[i], func() { step(i + 1) })
		}
		step(0)
	})
	drained = m.Eng.Run()
	err = m.checkQuiescent()
	if !completed && err == nil {
		err = errors.New("machine: staged plan did not complete")
	}
	return done, drained, err
}

// launchAll launches a set of kernels concurrently (they share the GPU per
// their SM partitions) and calls onDone when every one of them finished.
// The whole batch shares one wave number: the batch boundary is the
// barrier the critical-path extraction chains spans across.
func (m *Machine) launchAll(kernels []*kernel.Kernel, onDone func()) {
	if len(kernels) == 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	m.nextWave++
	wave := m.nextWave
	// One pooled latch counts the batch: each kernel's completion record
	// holds the latch's cached Done method value as its onDone.
	batch := m.latches.Get(len(kernels), onDone)
	bdone := batch.DoneFunc()
	for _, k := range kernels {
		m.launchKernel(k, wave, bdone)
	}
}

func (m *Machine) registerTB(l *gpu.Launch, tb int, in []kernel.Tile) {
	pending := 0
	var dep *tbDep
	for _, t := range in {
		s := m.slot(t)
		if s.ready {
			continue
		}
		if dep == nil {
			dep = m.deps.Get()
			dep.launch, dep.tb = l, tb
		}
		pending++
		if s.waiters == nil {
			s.waiters = make([]*tbDep, 0, firstWaiters)
		}
		s.waiters = append(s.waiters, dep)
	}
	if pending == 0 {
		l.MarkEligible(tb)
		return
	}
	dep.pending = pending
}

// PublishTiles marks tiles globally ready and wakes waiting TBs in
// registration order.
func (m *Machine) PublishTiles(tiles []kernel.Tile) {
	for _, t := range tiles {
		m.publishOne(t)
	}
}

// publishOne publishes a single tile: drained dependency records return
// to their pool, and the slot keeps its emptied waiter array. Nothing can
// append to it while the loop runs, since registerTB skips a ready tile.
func (m *Machine) publishOne(t kernel.Tile) {
	s := m.slot(t)
	if s.ready {
		return
	}
	s.ready = true
	m.PublishedTiles++
	deps := s.waiters
	s.waiters = deps[:0]
	for i, d := range deps {
		deps[i] = nil
		d.pending--
		if d.pending == 0 {
			launch, tb := d.launch, d.tb
			m.deps.Put(d)
			launch.MarkEligible(tb)
		}
	}
}

// lookup returns t's tracker slot, or nil when t lies outside every
// allocated buffer.
func (m *Machine) lookup(t kernel.Tile) *tileSlot {
	if uint(t.Buf) < uint(len(m.slots)) {
		if b := m.slots[t.Buf]; uint(t.Idx) < uint(len(b)) {
			return &b[t.Idx]
		}
	}
	return nil
}

// slot is lookup for registration and publication, where a tile outside
// every allocated buffer is a wiring bug.
func (m *Machine) slot(t kernel.Tile) *tileSlot {
	if s := m.lookup(t); s != nil {
		return s
	}
	panic(fmt.Sprintf("machine: tile{buf=%d idx=%d} lies outside every allocated buffer", t.Buf, t.Idx))
}

// TileReady reports whether a tile has been published; a tile outside
// every allocated buffer never has.
func (m *Machine) TileReady(t kernel.Tile) bool {
	s := m.lookup(t)
	return s != nil && s.ready
}

// Deliver implements gpu.Host: one completion of access a at GPU g. A
// read publishes its tiles here, since its data is now local. A write or
// reduction adds bytes to the access's contribution count at this (home)
// GPU and publishes once max(TileNeed, 1) whole accesses have landed.
func (m *Machine) Deliver(g int, a *kernel.Access, bytes int64) {
	if a.Sem == kernel.SemRead {
		m.publishFor(g, a)
		return
	}
	need := int64(max(a.TileNeed, 1)) * a.Bytes
	key := contribKey{base: a.Addr, gpu: g}
	st, ok := m.contrib[key]
	if !ok {
		st = m.contribs.Get()
		st.need = need
		m.contrib[key] = st
	}
	if st.need != need {
		panic(fmt.Sprintf("machine: inconsistent contribution need at addr %#x gpu %d: %d vs %d",
			a.Addr, g, st.need, need))
	}
	st.got += bytes
	if st.got < st.need {
		return
	}
	delete(m.contrib, key)
	m.contribs.Put(st)
	m.publishFor(g, a)
}

// publishFor publishes a's tiles at GPU g: its Publish list, or receiver
// g's tile of a PublishEach access.
func (m *Machine) publishFor(g int, a *kernel.Access) {
	if each := a.PublishEach; each.Buf != 0 {
		m.publishOne(kernel.Tile{Buf: each.Buf, Idx: each.Idx + g})
		return
	}
	m.PublishTiles(a.Publish)
}
