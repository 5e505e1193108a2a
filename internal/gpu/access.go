package gpu

import (
	"fmt"

	"cais/internal/kernel"
	"cais/internal/noc"
)

// This file is the allocation-discipline core of the GPU package: the
// per-access and per-chunk state that the hot path used to carry in
// heap-allocated closures and latches lives in pooled context objects
// whose completion closures are method values cached once per object
// lifetime. A recycled context reuses its closures — the receiver pointer
// is stable across pool round trips — so steady-state access issue is
// allocation free apart from the packets themselves (which are pooled too).

// hbmJob kinds: what to do when an HBM reservation drains. HBM
// reservations are FIFO (sim.Resource ends are monotonic) and the engine
// breaks same-instant ties in scheduling order, so one ring of pending
// jobs plus a single cached drain closure replaces a closure per
// reservation.
const (
	jobServe    = int8(iota) // answer a remote read with a response packet
	jobLoadResp              // commit arrived read data, complete the chunk
	jobData                  // commit write/reduction/multicast data, notify host
	jobLocal                 // finish a local access (publish + complete)
)

type hbmJob struct {
	kind int8
	p    *noc.Packet
	ctx  *accessCtx
}

// hbmDone drains the oldest pending HBM job. Exactly one job is pushed per
// scheduled invocation, so the ring head always matches.
func (g *GPU) hbmDone() {
	j := g.hbmJobs.PopFront()
	switch j.kind {
	case jobServe:
		p := j.p
		resp := g.pkts.Get()
		resp.Op, resp.Addr, resp.Home = noc.OpLoadResp, p.Addr, g.ID
		resp.Src, resp.Dst, resp.Size, resp.Group = g.ID, p.Src, p.Size, p.Group
		resp.Tag = p.Tag
		g.pkts.Put(p)
		g.sendUp(resp)

	case jobLoadResp:
		p := j.p
		done := p.OnDone
		ctx, _ := p.Tag.(*accessCtx)
		g.pkts.Put(p)
		switch {
		case done != nil:
			done()
		case ctx != nil:
			ctx.chunkDone()
		}

	case jobData:
		p := j.p
		g.host.OnData(g.ID, p)
		if p.OnDone != nil {
			p.OnDone()
		}
		g.pkts.Put(p)

	case jobLocal:
		c := j.ctx
		if len(c.a.Publish) > 0 || c.a.PublishEach.Buf != 0 {
			g.host.OnAccessDone(g.ID, c.a)
		}
		if c.onComplete != nil {
			c.onComplete()
		}
		g.ctxs.Put(c)
	}
}

// accessCtx is one TB access in flight: it owns the chunk fan-out counters
// that used to be a pair of latches, the throttle-ordered chunk cursor, and
// the cached completion closures shared by every chunk of the access.
type accessCtx struct {
	g            *GPU
	a            kernel.Access
	group        int
	throttledReq bool // red.cais under TB-aware throttling
	publishHere  bool
	onIssued     func()
	onComplete   func()
	tag          *TileTag
	chunk        int64 // resolved request granularity
	nextChunk    int   // next chunk index the throttle will send
	pendingIssue int
	pendingDone  int

	// Cached method values, created once per object lifetime and preserved
	// across Reset/reuse.
	chunkDoneFn func()
	sendNextFn  func()
}

// Reset clears the access state for pool reuse. The g back-pointer and the
// cached closures survive deliberately: they are bound to this object's
// identity, not to any one access.
func (c *accessCtx) Reset() {
	*c = accessCtx{g: c.g, chunkDoneFn: c.chunkDoneFn, sendNextFn: c.sendNextFn}
}

// getAccessCtx pops a recycled context and (first time only) installs its
// cached closures.
func (g *GPU) getAccessCtx() *accessCtx {
	c := g.ctxs.Get()
	if c.g == nil {
		c.g = g
		c.chunkDoneFn = c.chunkDone
		c.sendNextFn = c.sendNext
	}
	return c
}

// chunkIssued accounts one chunk handed to the fabric.
func (c *accessCtx) chunkIssued() {
	c.pendingIssue--
	if c.pendingIssue == 0 && c.onIssued != nil {
		c.onIssued()
	}
	c.maybeFree()
}

// chunkDone accounts one chunk's data movement finishing at this GPU.
func (c *accessCtx) chunkDone() {
	c.pendingDone--
	if c.pendingDone == 0 {
		if c.publishHere {
			c.g.host.OnAccessDone(c.g.ID, c.a)
		}
		if c.onComplete != nil {
			c.onComplete()
		}
	}
	c.maybeFree()
}

// maybeFree recycles the context once every chunk has been both issued and
// completed. Each counter decrement fires exactly once per chunk, so the
// final decrement — whichever counter it lands on — is the unique release
// point.
func (c *accessCtx) maybeFree() {
	if c.pendingIssue == 0 && c.pendingDone == 0 {
		c.g.ctxs.Put(c)
	}
}

// sendNext issues the next chunk in index order. Throttle grants are FIFO,
// so one shared closure with a cursor replaces a closure per chunk.
func (c *accessCtx) sendNext() {
	i := c.nextChunk
	c.nextChunk++
	c.sendChunk(i)
}

// sendChunk builds and injects chunk i's packet.
func (c *accessCtx) sendChunk(i int) {
	g := c.g
	sz := chunkSize(i, c.a.Bytes, c.chunk)
	p := g.pkts.Get()
	p.Op, p.Addr, p.Home = c.a.Mode, c.a.Addr+uint64(i), c.a.Home
	p.Src, p.Dst, p.Size, p.Group = g.ID, c.a.Home, sz, c.group
	if c.throttledReq {
		// Release on the switch's acceptance credit, not on completion:
		// completion of a merged request depends on peer GPUs and would
		// convoy the window.
		cc := g.getChunkCredit()
		cc.size = sz
		p.OnAccepted = cc.acceptedFn
	}
	switch c.a.Mode {
	case noc.OpLdCAIS, noc.OpMultimemLdReduce:
		p.Contribs = c.a.Expected
		p.OnDone = c.chunkDoneFn
	case noc.OpLoad:
		// Plain P2P loads route the completion through the tag: the home
		// GPU copies the tag onto its response.
		p.Contribs = c.a.Expected
		p.Tag = c
	case noc.OpStore, noc.OpMultimemST:
		p.Contribs = 1
		p.Tag = c.tag
		p.OnDone = c.chunkDoneFn
	case noc.OpRedCAIS, noc.OpMultimemRed:
		p.Contribs = c.a.Expected
		p.Tag = c.tag
		// Reductions complete (for throttling) when the merge session
		// finishes or flushes at the switch.
		p.OnDone = c.chunkDoneFn
		if c.a.Broadcast {
			p.Dst = -1
		} else if c.a.Mode == noc.OpMultimemRed {
			p.Dst = c.a.Home
		}
	default:
		panic(fmt.Sprintf("gpu%d: cannot issue op %v", g.ID, c.a.Mode))
	}
	g.sendUp(p)
	c.chunkIssued()
}

// chunkCredit carries one throttled chunk's byte count through the switch
// acceptance round trip. It cannot live on the packet: the credit fires
// after the merge unit absorbed (and recycled) the packet.
type chunkCredit struct {
	g          *GPU
	size       int64
	acceptedFn func()
}

// Reset clears the credit for pool reuse; the back-pointer and cached
// closure survive.
func (c *chunkCredit) Reset() { *c = chunkCredit{g: c.g, acceptedFn: c.acceptedFn} }

func (g *GPU) getChunkCredit() *chunkCredit {
	c := g.credits.Get()
	if c.g == nil {
		c.g = g
		c.acceptedFn = c.accepted
	}
	return c
}

// accepted releases the throttle window and recycles the credit: the
// switch sends exactly one acceptance per request.
func (c *chunkCredit) accepted() {
	sz := c.size
	c.g.credits.Put(c)
	c.g.throttle.Release(sz)
}

// chunkCount is the number of request-granularity chunks for n bytes,
// matching chunkSizes (the reference implementation kept for tests).
func chunkCount(n, chunk int64) int {
	if n <= 0 {
		return 1
	}
	if chunk <= 0 {
		return 1
	}
	return int((n + chunk - 1) / chunk)
}

// chunkSize is chunk i's byte count under the same split.
func chunkSize(i int, n, chunk int64) int64 {
	if n <= 0 {
		return 0
	}
	if chunk <= 0 {
		return n
	}
	off := int64(i) * chunk
	if rem := n - off; rem < chunk {
		return rem
	}
	return chunk
}
