// Package gpu models one H100-class device at thread-block granularity:
// an SM pool with per-kernel partitions (asymmetric kernel overlapping), a
// FIFO TB scheduler with deterministic cross-GPU ordering, roofline TB
// cost with calibrated execution noise, remote request generation with
// configurable chunking, the CAIS synchronizer (pre-launch and pre-access
// TB-group synchronization, Sec. III-B), and TB-aware request throttling.
package gpu

import (
	"fmt"

	"cais/internal/config"
	"cais/internal/kernel"
	"cais/internal/noc"
	"cais/internal/pool"
	"cais/internal/sim"
	"cais/internal/trace"
)

// TileTag travels on data packets so the machine layer can publish tiles
// and count reduction contributions at the receiving GPU.
type TileTag struct {
	Base      uint64 // access base address (chunks share it)
	NeedBytes int64  // contribution bytes required before publishing
	Publish   []kernel.Tile
	// PublishEach, when Buf != 0, makes receiver r publish the single
	// tile {Buf, Idx + r} (multicast copies land in per-GPU local
	// buffers).
	PublishEach kernel.Tile
}

// DataSink is the machine layer's view of data movement: it receives every
// committed data arrival and every completed publishing access so it can
// drive TB-level dataflow.
type DataSink interface {
	// OnData fires when a data packet has been committed to this GPU's
	// HBM (stores, reduction results, multicast copies).
	OnData(gpu int, p *noc.Packet)
	// OnAccessDone fires when one TB's access (all chunks) completed at
	// the issuing GPU: loads with arrived data, or local accesses.
	OnAccessDone(gpu int, a kernel.Access)
}

// GPU is one simulated device.
type GPU struct {
	ID int

	eng     *sim.Engine
	hw      config.Hardware
	up      []*noc.Link // per switch plane
	planeOf func(addr uint64) int
	// groupPlane, when set by the assembly layer, routes sync traffic for
	// a TB group (fault-aware: it skips failed planes). Nil keeps the
	// default static group % planes hash.
	groupPlane func(group int) int
	// slowdown scales TB compute time (straggler fault injection; 1 =
	// healthy).
	slowdown float64
	hbm      *sim.Resource
	sink     DataSink

	slotsFree int
	launches  []*Launch
	rrLaunch  int
	sync      *Synchronizer
	throttle  *Throttle

	nextPktID uint64
	seed      uint64

	// Free lists for the request hot path. pkts is the run-wide packet
	// pool shared with the switches (wired by the assembly layer; nil
	// degrades to plain allocation); the rest are private to this GPU.
	pkts    *noc.PacketPool
	ctxs    pool.Pool[accessCtx, *accessCtx]
	credits pool.Pool[chunkCredit, *chunkCredit]
	runs    pool.Pool[tbRun, *tbRun]

	// hbmJobs pairs pending HBM-reservation completions with the single
	// cached hbmDoneFn closure (see access.go).
	hbmJobs   pool.Ring[hbmJob]
	hbmDoneFn func()

	tr       *trace.Tracer
	pid      int32
	slotTids []int32 // free SM-slot trace tracks (only populated when tracing)

	// Stats.
	TBsRun         int64
	RequestsSent   int64
	BytesRequested int64
}

// New creates a GPU. Uplinks are attached afterwards with ConnectUp.
func New(eng *sim.Engine, id int, hw config.Hardware, planeOf func(addr uint64) int, sink DataSink) *GPU {
	g := &GPU{
		ID: id, eng: eng, hw: hw, planeOf: planeOf, sink: sink,
		slowdown:  1,
		up:        make([]*noc.Link, hw.NumSwitchPlanes),
		hbm:       sim.NewResource(fmt.Sprintf("gpu%d.hbm", id)),
		slotsFree: hw.SMsPerGPU,
		seed:      sim.Hash64(hw.Seed, uint64(id)),
		tr:        trace.FromEngine(eng),
		pid:       trace.GPUPid(id),
	}
	g.hbmDoneFn = g.hbmDone
	if g.tr.Enabled() {
		// SM-slot trace tracks, handed out lowest-numbered first so sparse
		// occupancy renders on the top tracks.
		g.slotTids = make([]int32, 0, hw.SMsPerGPU)
		for i := hw.SMsPerGPU - 1; i >= 0; i-- {
			g.slotTids = append(g.slotTids, int32(i))
		}
	}
	g.sync = newSynchronizer(g)
	g.throttle = newThrottle(hw.ThrottleWindowBytes)
	return g
}

// ConnectUp attaches the GPU->switch link for one plane.
func (g *GPU) ConnectUp(plane int, link *noc.Link) { g.up[plane] = link }

// SetPacketPool wires the run-wide packet free list (assembly layer). A
// nil pool — the default for hand-wired unit tests — falls back to plain
// allocation.
func (g *GPU) SetPacketPool(pp *noc.PacketPool) { g.pkts = pp }

// PoolStats sums Get traffic, fresh allocations and idle entries across
// the GPU's typed free lists (access contexts, chunk credits, TB runs).
// The shared packet pool is excluded — the machine reports it once.
func (g *GPU) PoolStats() (gets, news, idle int) {
	for _, p := range []interface{ Stats() (int, int, int) }{&g.ctxs, &g.credits, &g.runs} {
		pg, pn, pi := p.Stats()
		gets, news, idle = gets+pg, news+pn, idle+pi
	}
	return
}

// SetGroupRouter installs a fault-aware sync routing function (see
// Synchronizer.Wait). The assembly layer points this at the machine's
// plane-liveness-aware hash; standalone GPUs keep the static default.
func (g *GPU) SetGroupRouter(fn func(group int) int) { g.groupPlane = fn }

// SetComputeSlowdown scales this GPU's TB compute time (straggler fault
// injection). 1 restores full speed.
func (g *GPU) SetComputeSlowdown(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("gpu%d: compute slowdown must be positive", g.ID))
	}
	g.slowdown = f
}

// ComputeSlowdown reports the current straggler factor (1 = healthy).
func (g *GPU) ComputeSlowdown() float64 { return g.slowdown }

// Synchronizer exposes the TB-group synchronizer (for tests).
func (g *GPU) Synchronizer() *Synchronizer { return g.sync }

// Throttle exposes the request throttle (for tests).
func (g *GPU) Throttle() *Throttle { return g.throttle }

func (g *GPU) pktID() uint64 {
	g.nextPktID++
	return uint64(g.ID)<<48 | g.nextPktID
}

// sendUp routes a packet onto the deterministic plane for its address.
func (g *GPU) sendUp(p *noc.Packet) {
	plane := g.planeOf(p.Addr)
	if g.up[plane] == nil {
		panic(fmt.Sprintf("gpu%d: no uplink for plane %d", g.ID, plane))
	}
	g.RequestsSent++
	g.BytesRequested += p.WireBytes()
	g.up[plane].Send(p)
}

// hbmTime is the service time of n bytes at full HBM bandwidth.
func (g *GPU) hbmTime(n int64) sim.Time {
	return sim.DurationForBytes(n, g.hw.HBMBandwidth)
}

// Receive implements noc.Endpoint for downlink traffic. HBM-bound work is
// parked on the job ring and drained by the cached hbmDoneFn closure:
// reservations are FIFO and same-instant events run in scheduling order,
// so job k always pairs with the k-th completion (see access.go).
func (g *GPU) Receive(p *noc.Packet) {
	switch p.Op {
	case noc.OpLoad, noc.OpReadFan:
		// Serve a remote read from HBM, then respond on the address's
		// plane so merge/pull sessions see the response.
		_, end := g.hbm.Reserve(g.eng.Now(), g.hbmTime(p.Size))
		g.hbmJobs.PushBack(hbmJob{kind: jobServe, p: p})
		g.eng.At(end, g.hbmDoneFn)

	case noc.OpLoadResp:
		// Requested data arrived: commit to HBM, then complete.
		_, end := g.hbm.Reserve(g.eng.Now(), g.hbmTime(p.Size))
		g.hbmJobs.PushBack(hbmJob{kind: jobLoadResp, p: p})
		g.eng.At(end, g.hbmDoneFn)

	case noc.OpStore, noc.OpRedCAIS, noc.OpMultimemRed, noc.OpMultimemST:
		// Incoming write/reduction/multicast data: commit to HBM, then
		// notify the machine layer (tile publishing, contribution
		// counting) and the issuer.
		_, end := g.hbm.Reserve(g.eng.Now(), g.hbmTime(p.Size))
		g.hbmJobs.PushBack(hbmJob{kind: jobData, p: p})
		g.eng.At(end, g.hbmDoneFn)

	case noc.OpSyncRelease:
		g.sync.Release(p.Group, int(p.Addr))
		g.pkts.Put(p)

	default:
		panic(fmt.Sprintf("gpu%d: unexpected downlink op %v", g.ID, p.Op))
	}
}

// issueAccess performs one TB access. onIssued fires once every chunk has
// been handed to the fabric (posted-write retirement point); onComplete
// fires when the access's data movement finished at this GPU (loads: all
// chunks arrived; local accesses: HBM reservation drained). onComplete may
// be nil for posted writes.
func (g *GPU) issueAccess(a kernel.Access, group int, throttled bool, onIssued, onComplete func()) {
	if a.Local {
		_, end := g.hbm.Reserve(g.eng.Now(), g.hbmTime(a.Bytes))
		if onIssued != nil {
			g.eng.After(0, onIssued)
		}
		if len(a.Publish) > 0 || a.PublishEach.Buf != 0 || onComplete != nil {
			ctx := g.getAccessCtx()
			ctx.a = a
			ctx.onComplete = onComplete
			g.hbmJobs.PushBack(hbmJob{kind: jobLocal, ctx: ctx})
			g.eng.At(end, g.hbmDoneFn)
		}
		return
	}

	n := chunkCount(a.Bytes, g.hw.RequestBytes)
	ctx := g.getAccessCtx()
	ctx.a = a
	ctx.group = group
	ctx.onIssued = onIssued
	ctx.onComplete = onComplete
	// Reads publish their tiles at the issuing GPU once the data arrives;
	// remote writes/reductions publish at the home GPU via the packet tag
	// (never here — the issuer's completion is only a throttling signal).
	ctx.publishHere = a.Sem == kernel.SemRead &&
		(len(a.Publish) > 0 || a.PublishEach.Buf != 0)
	// Throttling applies to reduction traffic: red.cais carries data
	// uplink (the direction the merge footprint accumulates on), while
	// ld.cais requests are header-only and already paced by the
	// request/response round trip.
	ctx.throttledReq = throttled && a.Mode == noc.OpRedCAIS
	ctx.chunk = g.hw.RequestBytes
	ctx.pendingIssue, ctx.pendingDone = n, n

	if writesData(a.Mode) {
		need := a.TileNeed
		if need <= 0 {
			need = 1
		}
		// The tag outlives the access context: multicast copies still in
		// flight reference it at their receivers, so it stays a plain
		// allocation rather than joining a pool.
		ctx.tag = &TileTag{
			Base: a.Addr, NeedBytes: int64(need) * a.Bytes,
			Publish: a.Publish, PublishEach: a.PublishEach,
		}
	}

	if ctx.throttledReq {
		for i := 0; i < n; i++ {
			g.throttle.Acquire(chunkSize(i, a.Bytes, ctx.chunk), ctx.sendNextFn)
		}
		return
	}
	for i := 0; i < n; i++ {
		ctx.sendChunk(i)
	}
}

func writesData(op noc.Op) bool {
	switch op {
	case noc.OpStore, noc.OpRedCAIS, noc.OpMultimemRed, noc.OpMultimemST:
		return true
	default:
		return false
	}
}

// chunkSizes splits n bytes into request-granularity chunks.
func chunkSizes(n, chunk int64) []int64 {
	if n <= 0 {
		return []int64{0}
	}
	if chunk <= 0 {
		chunk = n
	}
	var out []int64
	for n > 0 {
		c := chunk
		if n < c {
			c = n
		}
		out = append(out, c)
		n -= c
	}
	return out
}
