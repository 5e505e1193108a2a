package nvswitch

import (
	"testing"
	"testing/quick"

	"cais/internal/noc"
	"cais/internal/sim"
)

// TestMergeUnitStressInvariants drives randomized load/reduction mixes
// through a capacity-limited merge unit with timeouts and checks the
// structural invariants the design guarantees:
//
//  1. every load request is answered exactly once (merged, cached, or
//     bypassed),
//  2. every reduction contribution reaches the home GPU exactly once
//     (inside a merged result or a partial flush),
//  3. the merging table drains to zero occupancy,
//  4. accounting identities hold (fetches + merged + bypasses = loads).
func TestMergeUnitStressInvariants(t *testing.T) {
	f := func(seed uint64, capKB uint8, nAddr uint8, timeoutUS uint8) bool {
		rng := sim.NewRNG(seed)
		capacity := int64(capKB%64+1) << 10
		addrs := int(nAddr%16) + 2
		timeout := sim.Time(timeoutUS%40+5) * sim.Microsecond

		r := newStressRig(4, capacity, timeout)
		const perAddrLoad = 3 // requesters per load address (P-1)
		const perAddrRed = 3

		type expect struct {
			isLoad   bool
			contribs int
		}
		expects := make([]expect, addrs)
		loads := &loadTag{} // every load's tag: the fake GPUs count responses
		wantResponses := 0
		// Loads on even addresses, reductions on odd. Offset the address
		// space so load/red keys never collide.
		for a := 0; a < addrs; a++ {
			isLoad := a%2 == 0
			expects[a] = expect{isLoad: isLoad}
			for g := 1; g <= 3; g++ {
				g := g
				addr := uint64(a*2 + 1)
				at := rng.Between(0, 60*sim.Microsecond)
				if isLoad {
					wantResponses++
					r.eng.At(at, func() {
						r.send(g, &noc.Packet{
							Op: noc.OpLdCAIS, Addr: addr, Home: 0, Src: g,
							Size: 2 << 10, Contribs: perAddrLoad, Tag: loads,
						})
					})
				} else {
					r.eng.At(at, func() {
						r.send(g, &noc.Packet{
							Op: noc.OpRedCAIS, Addr: addr, Home: 0, Src: g,
							Size: 2 << 10, Contribs: perAddrRed,
						})
					})
				}
			}
		}
		r.eng.Run()

		// Invariant 1: every load answered exactly once.
		if loads.done != wantResponses {
			t.Logf("seed %d: responses = %d, want %d", seed, loads.done, wantResponses)
			return false
		}
		// Invariant 2: reduction contributions conserved at the home GPU.
		contribs := map[uint64]int{}
		for _, p := range r.gpus[0].received {
			if p.Op == noc.OpRedCAIS {
				contribs[p.Addr] += p.Contribs
			}
		}
		for a := 0; a < addrs; a++ {
			if expects[a].isLoad {
				continue
			}
			if got := contribs[uint64(a*2+1)]; got != perAddrRed {
				t.Logf("seed %d: addr %d contributions = %d, want %d", seed, a, got, perAddrRed)
				return false
			}
		}
		// Invariant 3: the table drained.
		for g := 0; g < 4; g++ {
			if r.sw.Port(g).used != 0 || len(r.sw.Port(g).sessions) != 0 {
				t.Logf("seed %d: port %d not drained", seed, g)
				return false
			}
		}
		// Invariant 4: load accounting.
		st := r.sw.Summary()
		totalLoads := int64(wantResponses)
		if st.LoadFetches+st.MergedLoads+st.BypassLoads < totalLoads {
			t.Logf("seed %d: load accounting %d+%d+%d < %d",
				seed, st.LoadFetches, st.MergedLoads, st.BypassLoads, totalLoads)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

type stressRig struct {
	eng  *sim.Engine
	sw   *Switch
	gpus []*fakeGPU
}

func newStressRig(n int, capacity int64, timeout sim.Time) *stressRig {
	eng := sim.NewEngine()
	eng.SetStepLimit(5_000_000)
	sw := newSwitch(eng, testHW(n, capacity, timeout, 250*sim.Nanosecond), EvictLRU, planeZero)
	r := &stressRig{eng: eng, sw: sw, gpus: make([]*fakeGPU, n)}
	for g := 0; g < n; g++ {
		gpu := &fakeGPU{id: g}
		gpu.up = noc.NewLink(eng, 100e9, 250*sim.Nanosecond, sw)
		sw.ConnectDown(g, noc.NewLink(eng, 100e9, 250*sim.Nanosecond, gpu))
		r.gpus[g] = gpu
	}
	return r
}

func (r *stressRig) send(from int, p *noc.Packet) {
	r.gpus[from].up.Send(p)
}
