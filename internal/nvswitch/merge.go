package nvswitch

import (
	"fmt"
	"sort"

	"cais/internal/noc"
	"cais/internal/pool"
	"cais/internal/sim"
	"cais/internal/trace"
)

// SessionState is the state a merging-table entry tracks (Fig. 5).
type SessionState int

const (
	// LoadWait: a load session whose fetch to the home GPU is in flight.
	LoadWait SessionState = iota
	// LoadReady: the fetched data is cached in the content array.
	LoadReady
	// Reduction: an accumulating red.cais session.
	Reduction
)

func (st SessionState) String() string {
	switch st {
	case LoadWait:
		return "Load-Wait"
	case LoadReady:
		return "Load-Ready"
	case Reduction:
		return "Reduction"
	}
	return fmt.Sprintf("state(%d)", int(st))
}

// session is one merging-table entry: the CAM lookup table is the sessions
// map (associative search by address+type), the merging table is the entry
// contents (state, count, content-array bytes).
type session struct {
	addr     uint64
	state    SessionState
	size     int64 // content-array occupancy in bytes
	count    int   // merged requests (loads) or contributions (reductions)
	expected int
	bcast    bool // broadcast the merged result to all GPUs (GEMM-AR)
	pinned   bool // temporarily not evictable (growing in place)
	group    int
	waiters  []*noc.Packet // load requesters pending the fetch
	first    sim.Time      // first request arrival
	lru      sim.Time      // last access (LRU stamp + timeout base)
	flush    bool          // evict as soon as the pending response arrives
	tag      interface{}
	onDone   []func() // reduction contributors' completions
	traceID  uint64   // async-span id while tracing (0 = untraced)

	// m and timeoutFn are the entry's pooled identity: the owning unit and
	// its cached forward-progress closure, installed once at first pool Get
	// and preserved across Reset so re-arming never allocates.
	m         *MergeUnit
	timeoutFn func()
}

// Reset clears the entry for pool reuse, keeping the waiters/onDone
// backing arrays and the pooled identity (m and timeoutFn).
func (s *session) Reset() {
	clear(s.waiters)
	clear(s.onDone)
	*s = session{waiters: s.waiters[:0], onDone: s.onDone[:0], m: s.m, timeoutFn: s.timeoutFn}
}

// loadMetaBytes is the merging-table footprint of a Load-Wait entry: the
// CAM entry plus request metadata in the content array. The fetched data
// itself occupies the table only from response arrival (Load-Ready) until
// the entry releases — matching the Fig. 5 design where the content array
// caches arriving data, not outstanding requests.
const loadMetaBytes = 128

// mergeRespTag routes a home-GPU fetch response back to its session.
type mergeRespTag struct {
	unit *MergeUnit
	addr uint64
	orig interface{}
}

// Reset clears the tag for pool reuse.
func (t *mergeRespTag) Reset() { *t = mergeRespTag{} }

// EvictionPolicy selects the victim-selection rule under capacity
// pressure. The paper uses LRU; the alternatives exist for the design
// ablation (DESIGN.md: ablation benches for called-out design choices).
type EvictionPolicy int

const (
	// EvictLRU evicts the least-recently-used evictable entry (paper).
	EvictLRU EvictionPolicy = iota
	// EvictFIFO evicts the oldest evictable entry by insertion.
	EvictFIFO
	// EvictMRU evicts the most-recently-used evictable entry (an
	// adversarial policy for the ablation).
	EvictMRU
)

func (p EvictionPolicy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case EvictFIFO:
		return "fifo"
	case EvictMRU:
		return "mru"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// MergeUnit is the per-port CAIS merge unit (Fig. 5): a CAM lookup table
// plus merging table with byte-capacity accounting, LRU eviction and a
// timeout-based forward-progress mechanism (Sec. III-A-4).
type MergeUnit struct {
	plane         int
	gpu           int // the GPU this port faces (the home side)
	eng           *sim.Engine
	capacity      int64 // bytes; negative = unlimited
	timeout       sim.Time
	sessions      map[uint64]*session
	order         []uint64 // insertion/access order for deterministic LRU scan
	used          int64
	hwm           int64
	stats         *Stats
	sendDown      func(gpu int, p *noc.Packet)
	creditLatency sim.Time
	policy        EvictionPolicy
	numGPUs       int
	disabled      bool // fault injection: force the unmerged bypass path
	tr            *trace.Tracer
	pid           int32

	// pkts is the run-wide packet free list; the session/tag pools are
	// private to this port.
	pkts      *noc.PacketPool
	sessPool  pool.Pool[session, *session]
	respTags  pool.Pool[mergeRespTag, *mergeRespTag]
	plainTags pool.Pool[plainLoadTag, *plainLoadTag]
}

// getSession hands out a pooled merging-table entry, installing the owning
// unit and the cached timeout closure on first use.
func (m *MergeUnit) getSession() *session {
	s := m.sessPool.Get()
	if s.m == nil {
		s.m = m
		s.timeoutFn = s.timeoutCheck
	}
	return s
}

// SetDisabled turns the merge unit off (true) or back on (false). While
// disabled, ld.cais / red.cais requests take the same unmerged forwarding
// fallback used under table saturation — the NVLS/unmerged degradation the
// fault model calls "merge-disable". Disabling quiesces live sessions so
// no request waits on a unit that will never merge again.
func (m *MergeUnit) SetDisabled(disabled bool) {
	if m.disabled == disabled {
		return
	}
	m.disabled = disabled
	if disabled {
		m.Quiesce()
	}
}

// Quiesce flushes every live session: reduction entries flush partial
// results, cached loads release, and in-flight fetches are marked to
// release as soon as their response arrives. Used at merge-disable onset
// and plane failover.
func (m *MergeUnit) Quiesce() {
	if len(m.sessions) == 0 {
		return
	}
	addrs := make([]uint64, 0, len(m.sessions))
	for a := range m.sessions {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		s, ok := m.sessions[a]
		if !ok {
			continue
		}
		if s.state == LoadWait {
			// The home fetch is in flight; serve the waiters and release
			// when the response lands (same deferral as timeout eviction).
			s.flush = true
			continue
		}
		m.stats.Evictions++
		m.evict(s)
	}
}

// Used reports current content-array occupancy in bytes.
func (m *MergeUnit) Used() int64 { return m.used }

// HighWater reports the maximum occupancy observed; with unlimited
// capacity this is the "minimal required merge table size" of Fig. 13a.
func (m *MergeUnit) HighWater() int64 { return m.hwm }

// Sessions reports the number of live entries.
func (m *MergeUnit) Sessions() int { return len(m.sessions) }

// credit returns the acceptance feedback to the issuing GPU's throttle.
func (m *MergeUnit) credit(p *noc.Packet) {
	if p.OnAccepted == nil {
		return
	}
	fn := p.OnAccepted
	m.eng.After(m.creditLatency, fn)
}

// HandleLoad implements Micro-Function 1 (load request merging).
func (m *MergeUnit) HandleLoad(p *noc.Packet) {
	m.stats.noteArrivalKind(p.Addr, p.Expected(), m.eng.Now(), true)
	m.credit(p)
	now := m.eng.Now()
	if m.disabled {
		m.stats.BypassLoads++
		m.forwardPlainLoad(p)
		m.pkts.Put(p) // original absorbed; the fetch carries its context
		return
	}
	if s, ok := m.sessions[p.Addr]; ok && s.state != Reduction {
		// CAM hit on an active load session.
		s.count++
		s.lru = now
		//caislint:ignore exhaustive the enclosing CAM-hit guard excludes Reduction sessions
		switch s.state {
		case LoadWait:
			// Data still pending: append the request metadata to the
			// content array for a deferred response.
			s.waiters = append(s.waiters, p)
			m.stats.MergedLoads++
		case LoadReady:
			// Serve immediately from cached data.
			m.stats.MergedLoads++
			m.respond(s, p)
			m.pkts.Put(p) // served from cache; request absorbed
			if s.count >= s.expected {
				m.release(s)
			}
		}
		return
	}
	// Miss: allocate a new entry (Load-Wait entries hold only request
	// metadata); on capacity pressure, evict LRU evictable entries; if
	// nothing is evictable, bypass the merge unit.
	if !m.reserve(loadMetaBytes) {
		m.stats.BypassLoads++
		if m.tr.Enabled() {
			m.tr.Instant(m.pid, int32(m.gpu), "nvswitch.merge", "load bypass", now)
		}
		m.forwardPlainLoad(p)
		m.pkts.Put(p)
		return
	}
	s := m.getSession()
	s.addr, s.state, s.size, s.count = p.Addr, LoadWait, loadMetaBytes, 1
	s.expected, s.group, s.first, s.lru = p.Expected(), p.Group, now, now
	s.waiters = append(s.waiters, p)
	s.tag = p.Tag
	m.insert(s)
	m.stats.LoadFetches++
	// Forward the fetch to the home GPU through the standard routing path.
	tag := m.respTags.Get()
	tag.unit, tag.addr, tag.orig = m, p.Addr, p.Tag
	fetch := m.pkts.Get()
	fetch.Op, fetch.Addr, fetch.Home = noc.OpLoad, p.Addr, p.Home
	fetch.Src, fetch.Dst, fetch.Size, fetch.Group = p.Src, p.Home, p.Size, p.Group
	fetch.Tag = tag
	m.sendDown(p.Home, fetch)
	m.armTimeout(s)
}

// HandleResponse consumes the home GPU's fetch response for a LoadWait
// session: cache the data, answer all deferred requesters, and serve
// subsequent hits from the cache.
func (m *MergeUnit) HandleResponse(p *noc.Packet, tag *mergeRespTag) {
	s, ok := m.sessions[tag.addr]
	orig := tag.orig
	m.respTags.Put(tag)
	if !ok {
		// Session was force-released (timeout after flush); deliver to the
		// original requester only, with its completion context restored.
		p.Tag = orig
		m.sendDown(p.Dst, p)
		return
	}
	s.state = LoadReady
	s.lru = m.eng.Now()
	for i, w := range s.waiters {
		m.respond(s, w)
		m.pkts.Put(w)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
	if s.count >= s.expected || s.flush {
		m.release(s)
		m.pkts.Put(p)
		return
	}
	// Cache the arrived data for later requesters: grow the entry to the
	// data size. If the content array cannot hold it, serve what we have
	// and release (later requesters will re-fetch). The entry is pinned
	// during the reservation so the eviction scan cannot pick it as its
	// own victim (which would leak the grown bytes).
	grow := p.Size - s.size
	if grow > 0 {
		s.pinned = true
		ok := m.reserve(grow)
		s.pinned = false
		if !ok {
			m.stats.Evictions++
			m.release(s)
			m.pkts.Put(p)
			return
		}
		s.size += grow
	}
	m.pkts.Put(p) // response data cached; packet absorbed
}

// respond sends cached data down to one requester.
func (m *MergeUnit) respond(s *session, req *noc.Packet) {
	resp := m.pkts.Get()
	resp.Op, resp.Addr, resp.Home = noc.OpLoadResp, s.addr, m.gpu
	resp.Src, resp.Dst, resp.Size, resp.Group = m.gpu, req.Src, req.Size, req.Group
	resp.OnDone, resp.Tag = req.OnDone, req.Tag
	m.sendDown(req.Src, resp)
}

// forwardPlainLoad bypasses merging: the request goes to the home GPU and
// the response routes straight back (no caching, no table entry). Per
// Sec. III-A-4 this path avoids thrashing when the table is saturated.
func (m *MergeUnit) forwardPlainLoad(p *noc.Packet) {
	tag := m.plainTags.Get()
	tag.unit, tag.requester, tag.onDone, tag.orig = m, p.Src, p.OnDone, p.Tag
	fetch := m.pkts.Get()
	fetch.Op, fetch.Addr, fetch.Home = noc.OpLoad, p.Addr, p.Home
	fetch.Src, fetch.Dst, fetch.Size, fetch.Group = p.Src, p.Home, p.Size, p.Group
	fetch.Tag = tag
	m.sendDown(p.Home, fetch)
}

// plainLoadTag marks a bypassed load so the home GPU's response routes to
// the requester without touching the merge unit.
type plainLoadTag struct {
	unit      *MergeUnit
	requester int
	onDone    func()
	orig      interface{}
}

// Reset clears the tag for pool reuse.
func (t *plainLoadTag) Reset() { *t = plainLoadTag{} }

// HandleReduction implements Micro-Function 2 (reduction request merging).
func (m *MergeUnit) HandleReduction(p *noc.Packet) {
	m.stats.noteArrivalKind(p.Addr, p.Expected(), m.eng.Now(), false)
	m.credit(p)
	now := m.eng.Now()
	if m.disabled {
		m.stats.BypassReds++
		if p.Dst < 0 {
			// Broadcast (GEMM-AR) contribution with merging off: without
			// in-switch accumulation each contribution is replicated to
			// every replica, which count contributions to completion —
			// the full downlink cost of losing the merge unit.
			for g := 0; g < m.numGPUs; g++ {
				out := m.pkts.Get()
				out.Op, out.Addr, out.Home = noc.OpRedCAIS, p.Addr, m.gpu
				out.Src, out.Dst, out.Size, out.Group = -1, g, p.Size, p.Group
				out.Contribs, out.Tag = 1, p.Tag
				if g == m.gpu {
					out.OnDone = p.OnDone
				}
				m.sendDown(g, out)
			}
			m.pkts.Put(p)
			return
		}
		m.forwardPartial(p.Addr, p.Size, p.Group, 1, p.Tag, p.OnDone)
		m.pkts.Put(p)
		return
	}
	s, ok := m.sessions[p.Addr]
	if ok && s.state != Reduction {
		// Same address used for both load and reduction merging would be
		// a workload bug: CAIS keys sessions by (address, type) and our
		// address space assigns distinct ranges per buffer.
		panic(fmt.Sprintf("nvswitch: sw%d.port%d: load/reduction key collision at %#x", m.plane, m.gpu, p.Addr))
	}
	if !ok {
		if !m.reserve(p.Size) {
			// Bypass: forward the lone contribution straight to the home
			// GPU, which folds it in at HBM cost.
			m.stats.BypassReds++
			if m.tr.Enabled() {
				m.tr.Instant(m.pid, int32(m.gpu), "nvswitch.merge", "red bypass", now)
			}
			m.forwardPartial(p.Addr, p.Size, p.Group, 1, p.Tag, p.OnDone)
			m.pkts.Put(p)
			return
		}
		s = m.getSession()
		s.addr, s.state, s.size = p.Addr, Reduction, p.Size
		s.expected, s.group, s.first, s.lru = p.Expected(), p.Group, now, now
		s.bcast, s.tag = p.Dst < 0, p.Tag
		m.insert(s)
		m.armTimeout(s)
	}
	s.count++
	s.lru = now
	if p.OnDone != nil {
		s.onDone = append(s.onDone, p.OnDone)
	}
	m.pkts.Put(p) // contribution absorbed into the merging table
	m.stats.MergedReds++
	if s.count >= s.expected {
		m.stats.CompletedReds++
		m.finishReduction(s)
	}
}

// finishReduction writes the merged value out — to the home GPU, or to
// every GPU's replica for broadcast (GEMM-AR) sessions — and releases the
// entry.
func (m *MergeUnit) finishReduction(s *session) {
	if s.bcast {
		for g := 0; g < m.numGPUs; g++ {
			out := m.pkts.Get()
			out.Op, out.Addr, out.Home = noc.OpRedCAIS, s.addr, m.gpu
			out.Src, out.Dst, out.Size, out.Group = -1, g, s.size, s.group
			out.Contribs, out.Tag = s.count, s.tag
			m.sendDown(g, out)
		}
	} else {
		m.forwardPartial(s.addr, s.size, s.group, s.count, s.tag, nil)
	}
	for _, done := range s.onDone {
		m.eng.After(0, done)
	}
	m.release(s)
}

// forwardPartial sends an accumulated (possibly partial) reduction result
// to the home GPU; Contribs tells the home how many contributions the
// payload folds in so it can detect completion.
func (m *MergeUnit) forwardPartial(addr uint64, size int64, group, contribs int, tag interface{}, onDone func()) {
	out := m.pkts.Get()
	out.Op, out.Addr, out.Home = noc.OpRedCAIS, addr, m.gpu
	out.Src, out.Dst, out.Size, out.Group = -1, m.gpu, size, group
	out.Contribs, out.Tag, out.OnDone = contribs, tag, onDone
	m.sendDown(m.gpu, out)
}

// reserve makes room for size bytes, evicting LRU evictable entries if
// needed. It reports false when the allocation cannot be satisfied (the
// arriving request must bypass the merge unit).
func (m *MergeUnit) reserve(size int64) bool {
	if m.capacity < 0 {
		m.used += size
		if m.used > m.hwm {
			m.hwm = m.used
		}
		return true
	}
	if size > m.capacity {
		return false
	}
	for m.used+size > m.capacity {
		if !m.evictOne() {
			return false
		}
	}
	m.used += size
	if m.used > m.hwm {
		m.hwm = m.used
	}
	return true
}

// evictOne evicts one evictable entry per the configured policy
// (Sec. III-A-4, LRU by default): Reduction entries flush their partial
// sum to the home GPU; LoadReady entries drop their cached data; LoadWait
// entries are deferred (marked flush-on-response) and are not immediately
// reclaimable.
func (m *MergeUnit) evictOne() bool {
	var victim *session
	for _, addr := range m.order {
		s, ok := m.sessions[addr]
		if !ok {
			continue
		}
		if s.state == LoadWait || s.flush || s.pinned {
			continue
		}
		switch m.policy {
		case EvictFIFO:
			// m.order is insertion-ordered: first evictable wins.
			victim = s
		case EvictMRU:
			if victim == nil || s.lru > victim.lru {
				victim = s
			}
		default: // EvictLRU
			if victim == nil || s.lru < victim.lru {
				victim = s
			}
		}
		if m.policy == EvictFIFO && victim != nil {
			break
		}
	}
	if victim == nil {
		return false
	}
	m.stats.Evictions++
	if m.tr.Enabled() {
		m.tr.Instant(m.pid, int32(m.gpu), "nvswitch.merge", "evict "+victim.state.String(), m.eng.Now())
	}
	m.evict(victim)
	return true
}

func (m *MergeUnit) evict(s *session) {
	if s.state == Reduction && s.bcast {
		// A broadcast session cannot flush partials to a home replica;
		// it completes in place (all contributions are counted at the
		// receivers, so partial broadcasts stay correct).
		m.stats.PartialFlushes++
		m.finishReduction(s)
		return
	}
	if s.state == Reduction {
		// Flush the partial result to the home GPU.
		m.stats.PartialFlushes++
		m.forwardPartial(s.addr, s.size, s.group, s.count, s.tag, nil)
		for _, done := range s.onDone {
			m.eng.After(0, done)
		}
	}
	m.release(s)
}

// release frees an entry's table space and recycles the entry. The guard
// compares pointers, not just presence: sessions are pooled, so a stale
// release must not tear down a successor entry that reuses the address.
func (m *MergeUnit) release(s *session) {
	if cur, ok := m.sessions[s.addr]; !ok || cur != s {
		return
	}
	m.recordSkew(s)
	if s.traceID != 0 {
		name := "merge load"
		if s.state == Reduction {
			name = "merge red"
		}
		m.tr.EndAsync(m.pid, "nvswitch.merge", name, s.traceID, m.eng.Now())
	}
	delete(m.sessions, s.addr)
	m.used -= s.size
	if m.used < 0 {
		panic("nvswitch: merge table occupancy underflow")
	}
	m.sessPool.Put(s)
}

func (m *MergeUnit) recordSkew(s *session) {
	// Session lifetime (first arrival to release) approximates the
	// arrival spread the entry had to buffer; full per-address skew is
	// tracked in Stats independently of session lifetime.
	m.stats.noteSessionLifetime(m.eng.Now() - s.first)
}

func (m *MergeUnit) insert(s *session) {
	if m.tr.Enabled() {
		s.traceID = m.tr.NextID()
		name := "merge load"
		if s.state == Reduction {
			name = "merge red"
		}
		m.tr.BeginAsync(m.pid, "nvswitch.merge", name, s.traceID, s.first)
	}
	m.sessions[s.addr] = s
	m.order = append(m.order, s.addr)
	// Compact the order slice opportunistically once it accumulates
	// mostly-dead addresses.
	if len(m.order) > 4*len(m.sessions)+64 {
		live := m.order[:0]
		for _, addr := range m.order {
			if _, ok := m.sessions[addr]; ok {
				live = append(live, addr)
			}
		}
		m.order = live
	}
}

// armTimeout schedules the forward-progress check for a session. Each
// access extends the deadline; the event re-arms itself (via the session's
// cached closure — no per-arm allocation) until the session is released or
// goes stale.
func (m *MergeUnit) armTimeout(s *session) {
	if m.timeout <= 0 {
		return
	}
	m.eng.At(s.lru+m.timeout, s.timeoutFn)
}

// timeoutCheck is the body of the forward-progress event. Sessions are
// pooled, so a fired check distinguishes "my session" from "a successor
// reusing my entry object" by the sessions-map lookup: if the recycled
// entry now serves a different address the lookup misses (or finds a
// different pointer) and the stale event dies; if it serves the same
// address again, the lru guard makes the check equivalent to a freshly
// armed one.
func (s *session) timeoutCheck() {
	m := s.m
	cur, ok := m.sessions[s.addr]
	if !ok || cur != s {
		return
	}
	if cur.lru+m.timeout > m.eng.Now() {
		// Touched since; re-arm at the extended deadline.
		m.armTimeout(cur)
		return
	}
	m.stats.TimeoutEvictions++
	if m.tr.Enabled() {
		m.tr.Instant(m.pid, int32(m.gpu), "nvswitch.merge", "timeout", m.eng.Now())
	}
	if cur.state == LoadWait {
		// Defer until the response arrives (Sec. III-A-4).
		cur.flush = true
		return
	}
	m.evict(cur)
}
