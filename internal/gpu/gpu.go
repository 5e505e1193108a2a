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

// Host is the machine layer as one GPU sees it: it routes the GPU's
// traffic onto switch planes and takes the completions of thread blocks'
// accesses so it can drive TB-level dataflow.
type Host interface {
	// RouteAddr picks the switch plane an address's requests travel on.
	RouteAddr(addr uint64) int
	// RouteGroup picks the plane holding a TB group's Group Sync Table
	// entry, so all GPUs of the group meet at the same switch.
	RouteGroup(group int) int
	// Deliver hands over one completion of access a at this GPU. Either
	// a data packet carrying a as its tag committed to this GPU's HBM (a
	// store, reduction result or multicast copy; bytes is max(Contribs,
	// 1) times the packet's size), or a read or local access finished at
	// its issuer (bytes is a.Bytes). a is the issuing thread block's own
	// descriptor: admission-time descriptors are never reclaimed, so it
	// stays valid for the machine's lifetime.
	Deliver(gpu int, a *kernel.Access, bytes int64)
	// PublishTiles takes a retiring thread block's Out tiles: its posts
	// are issued, so the tiles it produces count as ready.
	PublishTiles(tiles []kernel.Tile)
}

// GPU is one simulated device.
type GPU struct {
	ID int

	eng  *sim.Engine
	hw   config.Hardware
	up   []*noc.Link // per switch plane
	host Host
	// slowdown scales TB compute time (straggler fault injection; 1 =
	// healthy).
	slowdown float64
	hbm      *sim.Resource

	slotsFree int
	launches  []*Launch
	rrLaunch  int
	sync      *Synchronizer
	throttle  *Throttle

	seed uint64

	// Free lists for the request hot path. pkts is the run-wide packet
	// pool shared with the switches; the rest are private to this GPU.
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

// New creates GPU id of the run: host routes its traffic and takes its
// data, pkts is the run's packet pool and tr its tracer (nil disables
// tracing). Uplinks are attached afterwards with ConnectUp.
func New(eng *sim.Engine, id int, hw config.Hardware, host Host, pkts *noc.PacketPool, tr *trace.Tracer) *GPU {
	g := &GPU{
		ID: id, eng: eng, hw: hw, host: host, pkts: pkts, tr: tr,
		slowdown:  1,
		up:        make([]*noc.Link, hw.NumSwitchPlanes),
		hbm:       sim.NewResource(),
		slotsFree: hw.SMsPerGPU,
		seed:      sim.Hash64(hw.Seed, uint64(id)),
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

// Synchronizer exposes the TB-group synchronizer to the machine's fault
// injector and quiescence audit.
func (g *GPU) Synchronizer() *Synchronizer { return g.sync }

// sendUp routes a packet onto the deterministic plane for its address.
func (g *GPU) sendUp(p *noc.Packet) {
	plane := g.host.RouteAddr(p.Addr)
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

// Receive implements noc.Endpoint for downlink traffic. Everything but a
// sync release commits to (or reads from) HBM first: the packet parks on
// the job ring and the cached hbmDoneFn closure drains it. Reservations
// are FIFO and same-instant events run in scheduling order, so job k
// always pairs with the k-th completion (see access.go).
func (g *GPU) Receive(p *noc.Packet) {
	var kind int8
	switch p.Op {
	case noc.OpLoad, noc.OpReadFan:
		// Serve a remote read, then respond on the address's plane so
		// merge/pull sessions see the response.
		kind = jobServe
	case noc.OpLoadResp:
		// Requested data arrived: commit it, then complete the load.
		kind = jobLoadResp
	case noc.OpStore, noc.OpRedCAIS, noc.OpMultimemRed, noc.OpMultimemST:
		// Incoming write/reduction/multicast data: commit it, then notify
		// the machine layer (tile publishing, contribution counting) and
		// the issuer.
		kind = jobData
	case noc.OpSyncRelease:
		g.sync.Release(p.Group, int(p.Addr))
		g.pkts.Put(p)
		return
	default:
		panic(fmt.Sprintf("gpu%d: unexpected downlink op %v", g.ID, p.Op))
	}
	_, end := g.hbm.Reserve(g.eng.Now(), g.hbmTime(p.Size))
	g.hbmJobs.PushBack(hbmJob{kind: kind, p: p})
	g.eng.At(end, g.hbmDoneFn)
}

// issueAccess performs one TB access. onIssued fires once every chunk has
// been handed to the fabric (posted-write retirement point); onComplete
// fires when the access's data movement finished at this GPU (loads: all
// chunks arrived; local accesses: HBM reservation drained). onComplete may
// be nil for posted writes. a is the thread block's own descriptor: remote
// writes and reductions carry it to their home GPU as the packet tag.
func (g *GPU) issueAccess(a *kernel.Access, group int, throttled bool, onIssued, onComplete func()) {
	// Reads and local accesses are delivered here once their data moved,
	// if they publish tiles. Remote writes and reductions publish at the
	// home GPU instead (the issuer's completion is only a throttling
	// signal).
	publishHere := (a.Local || a.Sem == kernel.SemRead) &&
		(len(a.Publish) > 0 || a.PublishEach.Buf != 0)
	if a.Local {
		_, end := g.hbm.Reserve(g.eng.Now(), g.hbmTime(a.Bytes))
		if onIssued != nil {
			g.eng.After(0, onIssued)
		}
		if publishHere || onComplete != nil {
			ctx := g.getAccessCtx()
			ctx.a, ctx.publishHere, ctx.onComplete = a, publishHere, onComplete
			g.hbmJobs.PushBack(hbmJob{kind: jobLocal, ctx: ctx})
			g.eng.At(end, g.hbmDoneFn)
		}
		return
	}

	n := g.hw.RequestChunks(a.Bytes)
	ctx := g.getAccessCtx()
	ctx.a = a
	ctx.group = group
	ctx.onIssued = onIssued
	ctx.onComplete = onComplete
	ctx.publishHere = publishHere
	// Throttling applies to reduction traffic: red.cais carries data
	// uplink (the direction the merge footprint accumulates on), while
	// ld.cais requests are header-only and already paced by the
	// request/response round trip.
	ctx.throttledReq = throttled && a.Mode == noc.OpRedCAIS
	ctx.pendingIssue, ctx.pendingDone = n, n

	if ctx.throttledReq {
		for i := 0; i < n; i++ {
			g.throttle.Acquire(chunkSize(i, a.Bytes, g.hw.RequestBytes), ctx.sendNextFn)
		}
		return
	}
	for i := 0; i < n; i++ {
		ctx.sendChunk(i)
	}
}
