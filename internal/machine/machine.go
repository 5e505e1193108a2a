// Package machine assembles the simulated multi-GPU system — GPUs, switch
// planes and the links between them — and drives kernel execution: it owns
// the global tile tracker that implements TB-level dataflow (consumer TBs
// become eligible the moment their input tiles are ready), counts
// reduction contributions at home GPUs, and sequences kernel launches for
// the execution strategies.
package machine

import (
	"fmt"
	"sort"

	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/gpu"
	"cais/internal/kernel"
	"cais/internal/metrics"
	"cais/internal/noc"
	"cais/internal/nvswitch"
	"cais/internal/pool"
	"cais/internal/sim"
	"cais/internal/trace"
)

// Options tune a run beyond the hardware config and the strategy spec:
// design ablations, fault injection and observers. It is the one
// run-options type; strategy.Options aliases it. Fields tagged
// `memo:"-"` are observers left out of memo keys (DESIGN.md §10).
type Options struct {
	// Eviction selects the merge unit's victim policy (default LRU).
	Eviction nvswitch.EvictionPolicy
	// NoControlSideband disables the dedicated request/control channel
	// on every link (design ablation: control packets then share the
	// data queues and suffer head-of-line blocking).
	NoControlSideband bool
	// Tracer, when non-nil, is handed to every component at assembly so
	// each records spans into it (Perfetto export). Nil keeps
	// instrumentation disabled at zero cost. memo.Cacheable rejects runs
	// that set it.
	Tracer *trace.Tracer `memo:"-"`
	// Progress, when set, is invoked from the event loop every 2^18
	// engine steps (heartbeat logging). The cadence does not affect
	// simulated time.
	Progress func(now sim.Time, steps uint64) `memo:"-"`
	// Faults, when non-nil and non-empty, is the fault schedule the
	// machine's injector plays back on the sim clock (DESIGN.md §8). Nil
	// or empty keeps every fault hook inert, bit-identical to an
	// unfaulted run.
	Faults *faults.Schedule
	// UtilBin, when positive, records a binned link-utilization timeline
	// over all links, read back with Machine.Timeline (Fig. 16). It hashes
	// into the memo key, so timeline-producing runs stay cacheable.
	UtilBin sim.Time
	// Attrib, when set, attaches an internal tracer (unless Tracer is
	// set) so core.Session.Run can build the time-attribution report
	// (DESIGN.md §12). The tracer only observes: elapsed time and
	// telemetry are identical with Attrib on or off.
	Attrib bool
}

// Machine is one assembled system plus its execution state.
type Machine struct {
	Eng  *sim.Engine
	HW   config.Hardware
	Opts Options

	GPUs     []*gpu.GPU
	Switches []*nvswitch.Switch
	upLink   [][]*noc.Link // [plane][gpu] GPU->switch
	downLink [][]*noc.Link // [plane][gpu] switch->GPU

	// Global tile tracker: slots[buf][idx], one slice per buffer sized
	// by NewBuffer. Buffer IDs count up from 1, so slots[0] stays empty.
	slots [][]tileSlot

	// Reduction contribution counting at home GPUs.
	contrib map[contribKey]*contribState

	// Per-run allocation state for the kernel-construction and dataflow
	// hot path (DESIGN.md §10). All of it is owned by this machine and
	// dies with it, so nothing leaks across simulation points.
	tiles    pool.Arena[kernel.Tile]                // TB descriptor tile slices
	accs     pool.Arena[kernel.Access]              // TB descriptor access slices
	deps     pool.Pool[tbDep, *tbDep]               // tile-tracker dependency records
	kdones   pool.Pool[kernelDone, *kernelDone]     // per-kernel completion records
	contribs pool.Pool[contribState, *contribState] // reduction contribution counters
	latches  sim.LatchPool                          // kernel/batch completion latches

	// launchScratch is the reusable per-launchKernel slice of the
	// SPMD launch handles (only live inside one launchKernel call).
	launchScratch []*gpu.Launch

	nextLaunchID  int
	nextGroupBase int
	nextAddr      uint64

	// PublishedTiles counts tile publications (diagnostics).
	PublishedTiles int64

	// Plane liveness for fault-aware routing: planeAlive[p] is false while
	// plane p is failed; survivors lists the live planes in index order.
	// All-alive keeps RouteAddr/RouteGroup bit-identical to the static
	// address-hash of a healthy machine.
	planeAlive []bool
	survivors  []int
	reroutes   int64 // packets routed around a dead plane

	// KernelSpans records per-kernel execution windows for reporting:
	// earliest launch start to latest completion across GPUs.
	KernelSpans []*KernelSpan
	// nextWave numbers barrier-delimited launch batches: every kernel of
	// one launchAll shares a wave. The wave order is the dependency order
	// the critical-path extraction in internal/attrib chains spans by.
	nextWave int

	pkts *noc.PacketPool
	reg  *metrics.Registry
	tr   *trace.Tracer
	util *metrics.UtilSeries // link busy timeline (Options.UtilBin)
}

// KernelSpan is one kernel's execution window across all GPUs.
type KernelSpan struct {
	Name  string
	Kind  kernel.Kind
	Wave  int      // barrier-delimited launch batch (see Machine.nextWave)
	Start sim.Time // first launch start
	End   sim.Time // last GPU's completion
}

type contribKey struct {
	base uint64
	gpu  int
}

type contribState struct {
	need int64
	got  int64
}

// Reset clears the counter for pool reuse.
func (c *contribState) Reset() { *c = contribState{} }

// tileSlot is one tile's tracker state: whether it has published, and
// the dependency records of the TBs waiting on it in registration order.
// Publishing empties waiters but keeps its backing array, so a tile
// registered against again reuses it.
type tileSlot struct {
	ready   bool
	waiters []*tbDep
}

// firstWaiters is the capacity of a slot's first waiter array. Growing
// from nil instead steps append through capacities 1, 2 and 4: Fig. 17's
// quick sweep then allocates 1.32M times instead of 1.21M.
const firstWaiters = 8

// tbDep tracks one TB instance's unsatisfied input count.
type tbDep struct {
	launch  *gpu.Launch
	tb      int
	pending int
}

// Reset clears the record for pool reuse.
func (d *tbDep) Reset() { *d = tbDep{} }

// kernelDone carries one kernel's completion bookkeeping (span close,
// trace end, caller callback); the pooled launch latch fires it when the
// kernel has retired on every GPU. The m back-pointer and cached fire
// method value are installed once per object lifetime.
type kernelDone struct {
	m       *Machine
	span    *KernelSpan
	traceID uint64
	onDone  func()
	fireFn  func()
}

// Reset clears per-kernel state for pool reuse; the m back-pointer and
// cached fireFn are the object's identity and survive.
func (d *kernelDone) Reset() { *d = kernelDone{m: d.m, fireFn: d.fireFn} }

// fire closes the kernel's span and runs the caller's completion. The
// record recycles itself first so the callback may immediately launch the
// next kernel through a fresh record.
func (d *kernelDone) fire() {
	m, span, traceID, onDone := d.m, d.span, d.traceID, d.onDone
	m.kdones.Put(d)
	span.End = m.Eng.Now()
	if traceID != 0 {
		m.tr.EndAsync(trace.PIDMachine, "kernel", span.Name, traceID, span.End)
	}
	if onDone != nil {
		onDone()
	}
}

// getKernelDone pops a recycled completion record and (first time only)
// installs its identity.
func (m *Machine) getKernelDone() *kernelDone {
	d := m.kdones.Get()
	if d.m == nil {
		d.m = m
		d.fireFn = d.fire
	}
	return d
}

// TileArena exposes the per-run tile-slice arena to the workload builders:
// kernel Work generators allocate their descriptor slices here instead of
// the heap. Slices live until the machine dies (or, inside the machine's
// own registration loop, until the surrounding Mark/Rewind window closes).
func (m *Machine) TileArena() *pool.Arena[kernel.Tile] { return &m.tiles }

// AccessArena is the access-slice counterpart of TileArena.
func (m *Machine) AccessArena() *pool.Arena[kernel.Access] { return &m.accs }

// New assembles a machine for the hardware configuration and applies
// every run option. It is the one place components are wired: each GPU,
// switch plane and link receives the hardware, the run's packet pool, the
// machine's fault-aware routes and the tracer at construction, observers
// attach to the links, and a fault schedule arms the injector.
func New(eng *sim.Engine, hw config.Hardware, opts Options) *Machine {
	if err := hw.Validate(); err != nil {
		panic(err)
	}
	if opts.Attrib && opts.Tracer == nil {
		opts.Tracer = trace.New()
	}
	if opts.Progress != nil {
		const progressEvery = 1 << 18 // engine steps per heartbeat
		eng.SetProgress(progressEvery, opts.Progress)
	}
	m := &Machine{
		Eng: eng, HW: hw, Opts: opts,
		slots:   make([][]tileSlot, 1), // buffer 0 is never allocated
		contrib: make(map[contribKey]*contribState),
		// Address 0 is reserved so a zero Access is always a bug.
		nextAddr: 1,
		reg:      metrics.NewRegistry(),
		tr:       opts.Tracer,
	}
	m.planeAlive = make([]bool, hw.NumSwitchPlanes)
	for p := range m.planeAlive {
		m.planeAlive[p] = true
	}
	m.recomputeSurvivors()
	// One run-wide packet free list shared by every GPU and switch plane:
	// packets recycle wherever they are terminally consumed, which is
	// usually on the other side of the fabric from where they were built.
	m.pkts = &noc.PacketPool{}
	for g := 0; g < hw.NumGPUs; g++ {
		m.GPUs = append(m.GPUs, gpu.New(eng, g, hw, m, m.pkts, m.tr))
	}
	planeBW := hw.PlaneBandwidth()
	for pl := 0; pl < hw.NumSwitchPlanes; pl++ {
		sw := nvswitch.New(eng, hw, pl, opts.Eviction, m.reg, m.pkts, m.tr)
		m.Switches = append(m.Switches, sw)
		ups := make([]*noc.Link, hw.NumGPUs)
		downs := make([]*noc.Link, hw.NumGPUs)
		for g := 0; g < hw.NumGPUs; g++ {
			up := noc.NewLink(eng, planeBW, hw.LinkLatency, sw)
			down := noc.NewLink(eng, planeBW, hw.LinkLatency, m.GPUs[g])
			up.SetControlSideband(!opts.NoControlSideband)
			down.SetControlSideband(!opts.NoControlSideband)
			m.GPUs[g].ConnectUp(pl, up)
			sw.ConnectDown(g, down)
			ups[g], downs[g] = up, down
			// Link busy intervals render on the switch plane's process:
			// one uplink and one downlink track per GPU port.
			up.TraceOn(m.tr, trace.SwitchPid(pl), trace.TIDUplinkBase+int32(g))
			down.TraceOn(m.tr, trace.SwitchPid(pl), trace.TIDDownlinkBase+int32(g))
		}
		m.upLink = append(m.upLink, ups)
		m.downLink = append(m.downLink, downs)
	}
	if opts.UtilBin > 0 {
		m.util = metrics.NewUtilSeries(opts.UtilBin, 2*hw.NumGPUs*hw.NumSwitchPlanes)
		for _, l := range m.Links() {
			l.SetRecorder(m.util)
		}
	}
	m.nameTraceTracks()
	m.registerGauges()
	m.installFaults()
	return m
}

// SetTrafficControl enables (on) or disables the per-class virtual
// channels with round-robin arbitration on every link (Sec. III-C-2: full
// CAIS enables them, CAIS-Partial does not). Call it before the run.
func (m *Machine) SetTrafficControl(on bool) {
	for _, l := range m.Links() {
		l.SetVirtualChannels(on)
	}
}

// Timeline returns the binned link-utilization timeline recorded under
// Options.UtilBin; it is zero when no timeline was recorded.
func (m *Machine) Timeline() metrics.UtilTimeline {
	if m.util == nil {
		return metrics.UtilTimeline{}
	}
	return m.util.Timeline()
}

// RouteAddr implements gpu.Host: the fault-aware address-to-plane hash
// shared by every GPU. It is the static plane hash when the plane is
// alive, else a consistent re-hash over the survivors. Only addresses that
// hashed to a dead plane remap, so live-plane merge/NVLS sessions are
// never split by a failover.
func (m *Machine) RouteAddr(addr uint64) int {
	p := int(addr % uint64(m.HW.NumSwitchPlanes))
	if m.planeAlive[p] {
		return p
	}
	m.reroutes++
	return m.survivor(addr)
}

// RouteGroup implements gpu.Host: the fault-aware Group Sync Table plane
// hash (same fallback rule as RouteAddr, keyed by group ID).
func (m *Machine) RouteGroup(group int) int {
	p := group % m.HW.NumSwitchPlanes
	if p < 0 {
		p = 0
	}
	if m.planeAlive[p] {
		return p
	}
	return m.survivor(uint64(p))
}

// survivor re-hashes key over the live planes.
func (m *Machine) survivor(key uint64) int {
	if len(m.survivors) == 0 {
		panic("machine: all switch planes are down")
	}
	return m.survivors[key%uint64(len(m.survivors))]
}

func (m *Machine) recomputeSurvivors() {
	m.survivors = m.survivors[:0]
	for p, alive := range m.planeAlive {
		if alive {
			m.survivors = append(m.survivors, p)
		}
	}
}

// nameTraceTracks labels the Perfetto processes and threads so the trace
// reads as the machine topology.
func (m *Machine) nameTraceTracks() {
	if !m.tr.Enabled() {
		return
	}
	m.tr.NameProcess(trace.PIDMachine, "machine")
	m.tr.NameThread(trace.PIDMachine, 0, "kernels")
	for g := 0; g < m.HW.NumGPUs; g++ {
		m.tr.NameProcess(trace.GPUPid(g), fmt.Sprintf("gpu%d", g))
		m.tr.NameThread(trace.GPUPid(g), trace.TIDSync, "sync")
	}
	for pl := 0; pl < m.HW.NumSwitchPlanes; pl++ {
		pid := trace.SwitchPid(pl)
		m.tr.NameProcess(pid, fmt.Sprintf("switch plane%d", pl))
		for g := 0; g < m.HW.NumGPUs; g++ {
			m.tr.NameThread(pid, trace.TIDUplinkBase+int32(g), fmt.Sprintf("uplink g%d", g))
			m.tr.NameThread(pid, trace.TIDDownlinkBase+int32(g), fmt.Sprintf("downlink g%d", g))
		}
	}
}

// registerGauges feeds machine-wide aggregates into the metric registry;
// all are lazily evaluated at snapshot time, so assembly pays nothing on
// the hot path.
func (m *Machine) registerGauges() {
	m.reg.GaugeFunc("sim.now_us", func() float64 { return m.Eng.Now().Microseconds() })
	m.reg.GaugeFunc("sim.steps", func() float64 { return float64(m.Eng.Steps()) })
	m.reg.GaugeFunc("machine.published_tiles", func() float64 { return float64(m.PublishedTiles) })
	m.reg.GaugeFunc("machine.merge_hwm_bytes", func() float64 { return float64(m.MergeTableHighWater()) })
	m.reg.GaugeFunc("noc.up.wire_bytes", func() float64 { up, _ := m.DirectionTraffic(); return float64(up) })
	m.reg.GaugeFunc("noc.down.wire_bytes", func() float64 { _, down := m.DirectionTraffic(); return float64(down) })
	m.reg.GaugeFunc("noc.up.busy_us", func() float64 { up, _ := m.DirectionBusy(); return up.Microseconds() })
	m.reg.GaugeFunc("noc.down.busy_us", func() float64 { _, down := m.DirectionBusy(); return down.Microseconds() })
	m.reg.GaugeFunc("gpu.tbs_run", func() float64 {
		var n int64
		for _, g := range m.GPUs {
			n += g.TBsRun
		}
		return float64(n)
	})
	m.reg.GaugeFunc("gpu.requests_sent", func() float64 {
		var n int64
		for _, g := range m.GPUs {
			n += g.RequestsSent
		}
		return float64(n)
	})
	m.reg.GaugeFunc("gpu.bytes_requested", func() float64 {
		var n int64
		for _, g := range m.GPUs {
			n += g.BytesRequested
		}
		return float64(n)
	})
	m.reg.GaugeFunc("machine.kernels_launched", func() float64 { return float64(len(m.KernelSpans)) })

	// Free-list health: Get traffic, fresh allocations and idle entries per
	// pool family. A steady-state run re-serves the same objects, so
	// allocs plateauing while gets keep climbing is the healthy signature
	// (DESIGN.md §10); these gauges surface it in -metrics-json.
	m.reg.GaugeFunc("pool.packets.gets", func() float64 { g, _, _ := m.pkts.Stats(); return float64(g) })
	m.reg.GaugeFunc("pool.packets.allocs", func() float64 { _, n, _ := m.pkts.Stats(); return float64(n) })
	m.reg.GaugeFunc("pool.packets.idle", func() float64 { _, _, i := m.pkts.Stats(); return float64(i) })
	gpuPools := func() (gets, news, idle int) {
		for _, g := range m.GPUs {
			pg, pn, pi := g.PoolStats()
			gets, news, idle = gets+pg, news+pn, idle+pi
		}
		return
	}
	m.reg.GaugeFunc("pool.gpu.gets", func() float64 { g, _, _ := gpuPools(); return float64(g) })
	m.reg.GaugeFunc("pool.gpu.allocs", func() float64 { _, n, _ := gpuPools(); return float64(n) })
	m.reg.GaugeFunc("pool.gpu.idle", func() float64 { _, _, i := gpuPools(); return float64(i) })
	swPools := func() (gets, news, idle int) {
		for _, sw := range m.Switches {
			sg, sn, si := sw.PoolStats()
			gets, news, idle = gets+sg, news+sn, idle+si
		}
		return
	}
	m.reg.GaugeFunc("pool.nvswitch.gets", func() float64 { g, _, _ := swPools(); return float64(g) })
	m.reg.GaugeFunc("pool.nvswitch.allocs", func() float64 { _, n, _ := swPools(); return float64(n) })
	m.reg.GaugeFunc("pool.nvswitch.idle", func() float64 { _, _, i := swPools(); return float64(i) })
	machinePools := func() (gets, news, idle int) {
		for _, p := range []interface{ Stats() (int, int, int) }{&m.deps, &m.kdones, &m.contribs, &m.latches} {
			g, n, i := p.Stats()
			gets, news, idle = gets+g, news+n, idle+i
		}
		return
	}
	m.reg.GaugeFunc("pool.machine.gets", func() float64 { g, _, _ := machinePools(); return float64(g) })
	m.reg.GaugeFunc("pool.machine.allocs", func() float64 { _, n, _ := machinePools(); return float64(n) })
	m.reg.GaugeFunc("pool.machine.idle", func() float64 { _, _, i := machinePools(); return float64(i) })
	// Arena health: chunks is the real heap footprint; elems keeps climbing
	// with work done, so elems/chunk >> arenaChunk means healthy reuse.
	m.reg.GaugeFunc("arena.tiles.chunks", func() float64 { c, _, _ := m.tiles.Stats(); return float64(c) })
	m.reg.GaugeFunc("arena.tiles.elems", func() float64 { _, _, e := m.tiles.Stats(); return float64(e) })
	m.reg.GaugeFunc("arena.accs.chunks", func() float64 { c, _, _ := m.accs.Stats(); return float64(c) })
	m.reg.GaugeFunc("arena.accs.elems", func() float64 { _, _, e := m.accs.Stats(); return float64(e) })
}

// Metrics exposes the machine's central metric registry.
func (m *Machine) Metrics() *metrics.Registry { return m.reg }

// Links yields every link in the fabric (both directions).
func (m *Machine) Links() []*noc.Link {
	var out []*noc.Link
	for pl := range m.upLink {
		out = append(out, m.upLink[pl]...)
		out = append(out, m.downLink[pl]...)
	}
	return out
}

// AllocAddrs reserves n consecutive address keys (one per request chunk,
// as HW.RequestChunks counts them) and returns the base.
func (m *Machine) AllocAddrs(n int) uint64 {
	if n < 1 {
		n = 1
	}
	base := m.nextAddr
	m.nextAddr += uint64(n)
	return base
}

// NewBuffer allocates a buffer of n tiles, indexed 0..n-1, in the tile
// tracker and returns its ID. A tile outside every allocated buffer is a
// wiring bug: registering or publishing it panics.
func (m *Machine) NewBuffer(n int) int {
	m.slots = append(m.slots, make([]tileSlot, n))
	return len(m.slots) - 1
}

// SwitchStats folds the per-plane switch statistics.
func (m *Machine) SwitchStats() nvswitch.Summary {
	var acc nvswitch.Summary
	for _, sw := range m.Switches {
		acc = acc.Add(sw.Summary())
	}
	return acc
}

// MergeTableHighWater reports the largest per-port merging-table occupancy
// across all planes and ports.
func (m *Machine) MergeTableHighWater() int64 {
	var hwm int64
	for _, sw := range m.Switches {
		for g := 0; g < m.HW.NumGPUs; g++ {
			if v := sw.Port(g).HighWater(); v > hwm {
				hwm = v
			}
		}
	}
	return hwm
}

// DirectionTraffic reports total wire bytes carried upstream (GPU->switch)
// and downstream (switch->GPU) — the asymmetric-traffic decomposition of
// Fig. 10.
func (m *Machine) DirectionTraffic() (up, down int64) {
	for pl := range m.upLink {
		for g := range m.upLink[pl] {
			up += m.upLink[pl][g].BytesSent()
			down += m.downLink[pl][g].BytesSent()
		}
	}
	return up, down
}

// DirectionBusy reports the accumulated serialization time per direction,
// summed across links.
func (m *Machine) DirectionBusy() (up, down sim.Time) {
	for pl := range m.upLink {
		for g := range m.upLink[pl] {
			up += m.upLink[pl][g].BusyTime()
			down += m.downLink[pl][g].BusyTime()
		}
	}
	return up, down
}

// AvgLinkUtilization reports the mean busy fraction across every link and
// both directions over [0, horizon] (Fig. 15's metric).
func (m *Machine) AvgLinkUtilization(horizon sim.Time) float64 {
	links := m.Links()
	if len(links) == 0 || horizon <= 0 {
		return 0
	}
	var sum float64
	for _, l := range links {
		sum += l.Utilization(horizon)
	}
	return sum / float64(len(links))
}

// checkQuiescent is the end-of-run audit RunStages applies to every run:
// it reports an error naming each tile still holding waiting TBs, each
// GPU with sync waits or launches outstanding, and any reduction
// contribution count left open — a deadlock, a miswired workload, or a
// reduction that never received all its contributions.
func (m *Machine) checkQuiescent() error {
	var stuck []string
	for buf, slots := range m.slots {
		for idx := range slots {
			live := 0
			for _, d := range slots[idx].waiters {
				if d.pending > 0 {
					live++
				}
			}
			if live > 0 {
				stuck = append(stuck, fmt.Sprintf("tile{buf=%d idx=%d}: %d TBs waiting", buf, idx, live))
			}
		}
	}
	for _, g := range m.GPUs {
		if n := g.Synchronizer().Pending(); n > 0 {
			stuck = append(stuck, fmt.Sprintf("gpu%d: %d sync waits pending", g.ID, n))
		}
		if n := g.ActiveLaunches(); n > 0 {
			stuck = append(stuck, fmt.Sprintf("gpu%d: %d launches unfinished", g.ID, n))
		}
	}
	if n := len(m.contrib); n > 0 {
		stuck = append(stuck, fmt.Sprintf("%d reduction contributions incomplete", n))
	}
	if len(stuck) == 0 {
		return nil
	}
	sort.Strings(stuck)
	if len(stuck) > 12 {
		stuck = append(stuck[:12], "...")
	}
	return fmt.Errorf("machine not quiescent: %v", stuck)
}
