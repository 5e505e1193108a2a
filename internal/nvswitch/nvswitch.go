// Package nvswitch models one NVSwitch plane: deterministic routing of
// peer-to-peer traffic, the NVLS in-switch multicast/reduction unit
// (multimem.st / multimem.ld_reduce / multimem.red), the CAIS merge unit
// with its CAM lookup table, merging table, LRU eviction and timeout
// forward-progress mechanism (Section III-A of the paper), and the Group
// Sync Table used by merging-aware TB coordination (Section III-B).
package nvswitch

import (
	"fmt"
	"sort"

	"cais/internal/config"
	"cais/internal/metrics"
	"cais/internal/noc"
	"cais/internal/pool"
	"cais/internal/sim"
	"cais/internal/trace"
)

// Switch is one NVSwitch plane. It terminates the per-GPU uplinks (it is
// their noc.Endpoint) and owns one downlink plus one merge unit per
// GPU-facing port.
type Switch struct {
	eng  *sim.Engine
	hw   config.Hardware
	down []*noc.Link // index = GPU
	port []*MergeUnit

	nvlsRed  map[uint64]*nvlsRedSession
	nvlsPull map[pullKey]*nvlsPullSession
	sync     map[syncTableKey]*syncEntry

	// faultTolerant arms the failover protocol (DESIGN.md §8): NVLS push
	// sessions get completion timeouts (re-routing can split a session
	// across planes, so waiting for all contributions may never end), and
	// duplicate sync registrations are tolerated instead of fatal. Off by
	// default so healthy runs keep strict invariants and bit-identical
	// behavior.
	faultTolerant bool
	// plane is this switch's index, and routeGroup the machine's
	// fault-aware Group Sync Table routing: the table keeps only the
	// groups routed to this plane.
	plane      int
	routeGroup func(group int) int

	stats *Stats
	tr    *trace.Tracer
	pid   int32

	// pkts is the run-wide packet free list; the session pools are
	// private to this plane.
	pkts         *noc.PacketPool
	redSessions  pool.Pool[nvlsRedSession, *nvlsRedSession]
	pullSessions pool.Pool[nvlsPullSession, *nvlsPullSession]
	syncEntries  pool.Pool[syncEntry, *syncEntry]

	// pending pairs packets awaiting the switch-internal latency with the
	// single cached processNextFn closure: the latency is constant, so
	// processing is FIFO and the ring head always matches the next event.
	pending       pool.Ring[*noc.Packet]
	processNextFn func()
}

type pullKey struct {
	addr      uint64
	requester int
}

// pullTag routes a ld_reduce fan response back to the plane that issued the
// fan-out. It carries the owning switch pointer rather than a bare key:
// after a plane failure the requester's address hash re-routes to a
// surviving plane, so the response must still find the originating
// session wherever the uplink delivers it.
type pullTag struct {
	sw  *Switch
	key pullKey
}

// nvlsRedSession accumulates multimem.red push-reduction contributions in
// the (pre-existing, unbounded) NVLS pipeline buffers.
type nvlsRedSession struct {
	size     int64
	count    int
	expected int
	bcast    bool // broadcast result to all GPUs (AllReduce semantics)
	home     int
	group    int
	onDone   []func()
	tag      interface{}
	lru      sim.Time // last contribution (timeout base in fault-tolerant mode)
}

// Reset clears the session for pool reuse, keeping the onDone backing
// array so steady-state sessions stop allocating.
func (rs *nvlsRedSession) Reset() {
	clear(rs.onDone)
	*rs = nvlsRedSession{onDone: rs.onDone[:0]}
}

// nvlsPullSession is one in-flight multimem.ld_reduce: reads fanned to all
// GPU replicas, reduced as responses return. fanTag is embedded so all N
// fan packets of the session share one tag instead of allocating N.
type nvlsPullSession struct {
	pending int
	resp    *noc.Packet
	fanTag  pullTag
}

// Reset clears the session for pool reuse.
func (ps *nvlsPullSession) Reset() { *ps = nvlsPullSession{} }

type syncEntry struct {
	count    int
	expected int
	seen     []bool // indexed by GPU; backing array reused across entries
}

// Reset clears the entry for pool reuse, keeping the seen backing array.
func (e *syncEntry) Reset() {
	clear(e.seen)
	*e = syncEntry{seen: e.seen}
}

// New creates the switch plane with index plane for the run's hardware hw:
// one merge unit per GPU-facing port with hw's merging table and timeout,
// the given eviction policy, and hw.LinkLatency as the credit-return
// latency (one link traversal back to the issuing GPU). routeGroup maps a
// sync group to the plane whose Group Sync Table serves it. The plane's
// statistics register in reg as "nvswitch.plane<N>.<metric>"; pkts is the
// run's packet pool and tr its tracer (nil disables tracing).
func New(eng *sim.Engine, hw config.Hardware, plane int, eviction EvictionPolicy, routeGroup func(group int) int,
	reg *metrics.Registry, pkts *noc.PacketPool, tr *trace.Tracer) *Switch {
	if hw.NumGPUs < 1 {
		panic("nvswitch: NumGPUs must be >= 1")
	}
	s := &Switch{
		eng:        eng,
		hw:         hw,
		down:       make([]*noc.Link, hw.NumGPUs),
		port:       make([]*MergeUnit, hw.NumGPUs),
		nvlsRed:    make(map[uint64]*nvlsRedSession),
		nvlsPull:   make(map[pullKey]*nvlsPullSession),
		sync:       make(map[syncTableKey]*syncEntry),
		plane:      plane,
		routeGroup: routeGroup,
		stats:      NewStatsIn(reg, fmt.Sprintf("nvswitch.plane%d", plane)),
		tr:         tr,
		pid:        trace.SwitchPid(plane),
		pkts:       pkts,
	}
	s.processNextFn = s.processNext
	for g := range s.port {
		s.port[g] = &MergeUnit{
			plane: plane, gpu: g, eng: eng,
			capacity: hw.MergeTableBytes, timeout: hw.MergeTimeout,
			sessions: make(map[uint64]*session), stats: s.stats,
			sendDown: s.sendDown, creditLatency: hw.LinkLatency,
			policy: eviction, numGPUs: hw.NumGPUs,
			tr: tr, pid: s.pid, pkts: pkts,
		}
	}
	return s
}

// ConnectDown attaches the switch->GPU link for one port. Must be called
// for every GPU before traffic flows.
func (s *Switch) ConnectDown(gpu int, link *noc.Link) { s.down[gpu] = link }

// Summary captures the plane's statistics into a plain value.
func (s *Switch) Summary() Summary { return s.stats.Summary }

// Port returns the merge unit of the given GPU-facing port.
func (s *Switch) Port(gpu int) *MergeUnit { return s.port[gpu] }

// PoolStats sums Get traffic, fresh allocations and idle entries across
// the plane's typed free lists (NVLS reduction/pull sessions, sync
// entries) and every port merge unit's (sessions, load tags). The shared
// packet pool is excluded — the machine reports it once.
func (s *Switch) PoolStats() (gets, news, idle int) {
	add := func(pg, pn, pi int) { gets, news, idle = gets+pg, news+pn, idle+pi }
	add(s.redSessions.Stats())
	add(s.pullSessions.Stats())
	add(s.syncEntries.Stats())
	for _, port := range s.port {
		add(port.sessPool.Stats())
		add(port.respTags.Stats())
		add(port.plainTags.Stats())
	}
	return
}

// SetFaultTolerant arms or disarms the failover protocol. The injector
// enables it (on every plane) only for schedules containing a plane
// failure, so all other runs keep today's strict, timeout-free NVLS
// semantics bit-for-bit.
func (s *Switch) SetFaultTolerant(on bool) { s.faultTolerant = on }

// Failover takes the plane down: every NVLS push session flushes its
// partial result (receivers count contribution bytes, so split sessions
// still complete) and every port's merge unit quiesces. Traffic already
// addressed to the plane keeps draining — downlinks stay up — and any
// sessions such stragglers open are reaped by the fault-tolerant timeouts.
// The Group Sync Table empties through DropRerouted once the machine has
// re-routed the plane's groups.
func (s *Switch) Failover() {
	addrs := make([]uint64, 0, len(s.nvlsRed))
	for a := range s.nvlsRed {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		s.stats.NvlsTimeoutFlushes++
		s.completeRed(a, s.nvlsRed[a])
	}
	for _, port := range s.port {
		port.Quiesce()
	}
	if s.tr.Enabled() {
		s.tr.Instant(s.pid, 0, "nvswitch.fault", "plane failover", s.eng.Now())
	}
}

// DropRerouted returns to the pool every Group Sync Table entry whose group
// now routes to another plane, counting each in sync_dropped. The machine
// runs it on every plane after a routing change (a plane failure or
// repair), before the GPUs re-register the moved waits on their new plane.
func (s *Switch) DropRerouted() {
	keys := make([]syncTableKey, 0, len(s.sync))
	for k := range s.sync {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].phase < keys[j].phase
	})
	for _, k := range keys {
		if s.routeGroup(k.group) != s.plane {
			s.syncEntries.Put(s.sync[k])
			delete(s.sync, k)
			s.stats.SyncDropped++
		}
	}
}

// Repair brings a failed plane back into service. Its tables are empty
// (flushed at failure); routing is restored by the machine.
func (s *Switch) Repair() {
	if s.tr.Enabled() {
		s.tr.Instant(s.pid, 0, "nvswitch.fault", "plane repair", s.eng.Now())
	}
}

// Receive implements noc.Endpoint for uplink traffic: the packet is
// processed after the switch-internal latency.
func (s *Switch) Receive(p *noc.Packet) {
	s.pending.PushBack(p)
	s.eng.After(s.hw.SwitchLatency, s.processNextFn)
}

func (s *Switch) processNext() {
	s.process(s.pending.PopFront())
}

func (s *Switch) sendDown(gpu int, p *noc.Packet) {
	if gpu < 0 || gpu >= len(s.down) || s.down[gpu] == nil {
		panic(fmt.Sprintf("nvswitch: no downlink for gpu %d", gpu))
	}
	s.down[gpu].Send(p)
}

func (s *Switch) process(p *noc.Packet) {
	switch p.Op {
	case noc.OpLoad, noc.OpStore:
		// Plain P2P: forward toward the home GPU.
		s.sendDown(p.Home, p)

	case noc.OpLoadResp:
		s.handleLoadResp(p)

	case noc.OpMultimemST:
		s.handleMulticastStore(p)

	case noc.OpMultimemLdReduce:
		s.handlePullReduce(p)

	case noc.OpMultimemRed:
		s.handlePushReduce(p)

	case noc.OpLdCAIS:
		s.port[p.Home].HandleLoad(p)

	case noc.OpRedCAIS:
		s.port[p.Home].HandleReduction(p)

	case noc.OpSyncRequest:
		s.handleSync(p)

	default:
		panic(fmt.Sprintf("nvswitch: unexpected uplink op %v", p.Op))
	}
}

// handleLoadResp routes a data response from a home GPU. Responses for
// merge-unit sessions carry a *MergeUnit tag; pull-reduce fan responses
// carry a pullKey tag; plain responses route to their destination.
func (s *Switch) handleLoadResp(p *noc.Packet) {
	switch tag := p.Tag.(type) {
	case *mergeRespTag:
		tag.unit.HandleResponse(p, tag)
	case *pullTag:
		tag.sw.handlePullResponse(p, tag.key)
	case *plainLoadTag:
		// Bypassed (unmerged) load: restore the requester's completion
		// context and deliver directly.
		p.Tag = tag.orig
		requester, unit := tag.requester, tag.unit
		if unit != nil {
			unit.plainTags.Put(tag)
		}
		s.sendDown(requester, p)
	default:
		s.sendDown(p.Dst, p)
	}
}

// handleMulticastStore implements the NVLS push-mode AllGather step: one
// uplink payload is replicated to every peer's downlink.
func (s *Switch) handleMulticastStore(p *noc.Packet) {
	s.stats.MulticastStores++
	for g := 0; g < s.hw.NumGPUs; g++ {
		if g == p.Src {
			continue
		}
		copyP := s.pkts.Get()
		*copyP = *p
		copyP.Dst = g
		copyP.OnDone = nil // completion is sender-side
		s.sendDown(g, copyP)
	}
	// Push stores complete at the sender as soon as the switch accepts
	// them (posted semantics). The original is absorbed here.
	done := p.OnDone
	s.pkts.Put(p)
	if done != nil {
		s.eng.After(0, done)
	}
}

// handlePullReduce implements multimem.ld_reduce: fan control reads to
// every GPU's replica, reduce responses in-flight, return one value to the
// requester.
func (s *Switch) handlePullReduce(p *noc.Packet) {
	key := pullKey{addr: p.Addr, requester: p.Src}
	if _, ok := s.nvlsPull[key]; ok {
		panic(fmt.Sprintf("nvswitch: duplicate ld_reduce session %+v", key))
	}
	resp := s.pkts.Get()
	resp.Op, resp.Addr, resp.Home = noc.OpLoadResp, p.Addr, p.Home
	resp.Src, resp.Dst, resp.Size, resp.Group = p.Home, p.Src, p.Size, p.Group
	resp.Tag, resp.Contribs = p.Tag, s.hw.NumGPUs
	sess := s.pullSessions.Get()
	sess.pending, sess.resp = s.hw.NumGPUs, resp
	sess.fanTag = pullTag{sw: s, key: key}
	s.nvlsPull[key] = sess
	s.stats.PullReduces++
	for g := 0; g < s.hw.NumGPUs; g++ {
		fan := s.pkts.Get()
		fan.Op, fan.Addr, fan.Home = noc.OpReadFan, p.Addr, g
		fan.Src, fan.Dst, fan.Size, fan.Group = p.Src, g, p.Size, p.Group
		fan.Tag = &sess.fanTag
		s.sendDown(g, fan)
	}
	s.pkts.Put(p)
}

func (s *Switch) handlePullResponse(p *noc.Packet, key pullKey) {
	sess, ok := s.nvlsPull[key]
	if !ok {
		panic(fmt.Sprintf("nvswitch: pull response without session %+v", key))
	}
	s.pkts.Put(p)
	sess.pending--
	if sess.pending == 0 {
		delete(s.nvlsPull, key)
		resp := sess.resp
		s.pullSessions.Put(sess)
		s.sendDown(resp.Dst, resp)
	}
}

// handlePushReduce implements multimem.red: contributions accumulate per
// address; once all expected GPUs contributed, the reduced value is
// written to all replicas (broadcast) or to the home GPU only.
func (s *Switch) handlePushReduce(p *noc.Packet) {
	sess, ok := s.nvlsRed[p.Addr]
	if !ok {
		expected := p.Contribs
		if expected <= 0 {
			expected = s.hw.NumGPUs
		}
		sess = s.redSessions.Get()
		sess.size, sess.expected, sess.home = p.Size, expected, p.Home
		sess.bcast, sess.group, sess.tag = p.Dst < 0, p.Group, p.Tag
		s.nvlsRed[p.Addr] = sess
		if s.faultTolerant {
			sess.lru = s.eng.Now()
			s.armRedTimeout(p.Addr, sess)
		}
	}
	sess.count++
	sess.lru = s.eng.Now()
	if p.OnDone != nil {
		sess.onDone = append(sess.onDone, p.OnDone)
	}
	addr := p.Addr
	s.pkts.Put(p) // contribution absorbed
	if sess.count < sess.expected {
		return
	}
	s.stats.PushReduces++
	s.completeRed(addr, sess)
}

// completeRed writes out an NVLS push session's (possibly partial)
// accumulated result and releases the session. Receivers count the
// contribution bytes each packet folds in, so a session split across
// partial flushes — or across planes after a failover — still sums to
// completion at every receiver.
func (s *Switch) completeRed(addr uint64, sess *nvlsRedSession) {
	delete(s.nvlsRed, addr)
	if sess.bcast {
		for g := 0; g < s.hw.NumGPUs; g++ {
			s.sendRedResult(addr, sess, g)
		}
	} else {
		s.sendRedResult(addr, sess, sess.home)
	}
	for _, done := range sess.onDone {
		s.eng.After(0, done)
	}
	s.redSessions.Put(sess)
}

func (s *Switch) sendRedResult(addr uint64, sess *nvlsRedSession, g int) {
	out := s.pkts.Get()
	out.Op, out.Addr, out.Home = noc.OpMultimemRed, addr, sess.home
	out.Src, out.Dst, out.Size, out.Group = -1, g, sess.size, sess.group
	out.Contribs, out.Tag = sess.count, sess.tag
	s.sendDown(g, out)
}

// armRedTimeout gives an NVLS push session a forward-progress deadline
// (fault-tolerant mode only): once contributions stop arriving for the
// timeout window, the partial result flushes. This is what keeps sessions
// live when a plane failure re-routes later contributions elsewhere.
func (s *Switch) armRedTimeout(addr uint64, sess *nvlsRedSession) {
	to := s.hw.MergeTimeout
	if to <= 0 {
		to = 8 * sim.Microsecond
	}
	deadline := sess.lru + to
	s.eng.At(deadline, func() {
		cur, ok := s.nvlsRed[addr]
		if !ok || cur != sess {
			return
		}
		if cur.lru+to > s.eng.Now() {
			s.armRedTimeout(addr, cur)
			return
		}
		s.stats.NvlsTimeoutFlushes++
		if s.tr.Enabled() {
			s.tr.Instant(s.pid, 0, "nvswitch.fault", "nvls timeout flush", s.eng.Now())
		}
		s.completeRed(addr, cur)
	})
}

// handleSync implements the Group Sync Table: when all expected GPUs have
// registered a given group/phase key, release packets broadcast to every
// GPU's synchronizer. A registration whose group routes to another plane
// (it was in flight when a failure or repair moved the group, and its wait
// re-registers there) is dropped instead.
func (s *Switch) handleSync(p *noc.Packet) {
	if s.routeGroup(p.Group) != s.plane {
		s.stats.SyncDropped++
	} else {
		s.syncRegister(p)
	}
	s.pkts.Put(p) // registration request absorbed
}

func (s *Switch) syncRegister(p *noc.Packet) {
	key := syncKey(p.Group, p.Addr)
	e, ok := s.sync[key]
	if !ok {
		expected := p.Contribs
		if expected <= 0 {
			expected = s.hw.NumGPUs
		}
		e = s.syncEntries.Get()
		if cap(e.seen) < s.hw.NumGPUs {
			e.seen = make([]bool, s.hw.NumGPUs)
		} else {
			e.seen = e.seen[:s.hw.NumGPUs]
		}
		e.expected = expected
		s.sync[key] = e
	}
	if e.seen[p.Src] {
		if s.faultTolerant {
			// A failover re-registration can race a registration that was
			// in flight when the routing changed; idempotent registration
			// keeps the entry correct.
			s.stats.SyncDuplicates++
			return
		}
		panic(fmt.Sprintf("nvswitch: duplicate sync registration group=%d phase=%d gpu=%d", p.Group, p.Addr, p.Src))
	}
	e.seen[p.Src] = true
	e.count++
	if e.count < e.expected {
		return
	}
	delete(s.sync, key)
	s.stats.SyncReleases++
	if s.tr.Enabled() {
		s.tr.Instant(s.pid, int32(p.Group), "nvswitch.sync", "sync release", s.eng.Now())
	}
	for g := 0; g < s.hw.NumGPUs; g++ {
		if !e.seen[g] {
			continue
		}
		rel := s.pkts.Get()
		rel.Op, rel.Addr = noc.OpSyncRelease, p.Addr
		rel.Src, rel.Dst, rel.Group = -1, g, p.Group
		s.sendDown(g, rel)
	}
	s.syncEntries.Put(e)
}

type syncTableKey struct {
	group int
	phase uint64
}

func syncKey(group int, phase uint64) syncTableKey {
	return syncTableKey{group: group, phase: phase}
}
