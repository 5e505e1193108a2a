package machine

import (
	"fmt"
	"strings"
	"testing"

	"cais/internal/config"
	"cais/internal/kernel"
	"cais/internal/noc"
	"cais/internal/sim"
)

func testHW() config.Hardware {
	hw := config.DGXH100()
	hw.NumGPUs = 4
	hw.NumSwitchPlanes = 2
	hw.SMsPerGPU = 8
	hw.RequestBytes = 1024
	hw.KernelLaunchJitter = 2 * sim.Microsecond
	return hw
}

// unlimitedHW is testHW with an unlimited merge table.
func unlimitedHW() config.Hardware {
	hw := testHW()
	hw.MergeTableBytes = -1
	return hw
}

func newTestMachine(t *testing.T, hw config.Hardware, opts Options) *Machine {
	t.Helper()
	eng := sim.NewEngine()
	eng.SetStepLimit(50_000_000)
	return New(eng, hw, opts)
}

// runKernel runs k as a one-stage plan, fails the test on any error the
// run or its quiescence audit reports, and returns the drained time.
func runKernel(t *testing.T, m *Machine, k *kernel.Kernel) sim.Time {
	t.Helper()
	_, drained, err := m.RunStages([][]*kernel.Kernel{{k}})
	if err != nil {
		t.Fatal(err)
	}
	return drained
}

// computeOnly builds a kernel of pure local compute.
func computeOnly(name string, grid int, flops float64) *kernel.Kernel {
	return &kernel.Kernel{
		Name: name, Kind: kernel.KindGEMM, Grid: grid,
		Work: func(g, tb int) kernel.TBDesc {
			return kernel.TBDesc{Flops: flops, LocalBytes: 1 << 12, Group: -1}
		},
	}
}

func TestComputeKernelCompletes(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	end := runKernel(t, m, computeOnly("gemm", 32, 1e9))
	// 32 TBs over 8 SMs, ~267us each (1e9/3.75e12): at least 4 waves.
	perTB := 1e9 / 7.5e12 // seconds per TB
	minT := sim.Time(4 * perTB * 1e12)
	if end < minT {
		t.Fatalf("completed at %v, faster than %v lower bound", end, minT)
	}
	var tbs int64
	for _, g := range m.GPUs {
		tbs += g.TBsRun
	}
	if tbs != 32*4 {
		t.Fatalf("TBs run = %d, want 128", tbs)
	}
}

// TestSequenceRunsKernelsWithBarriers runs a kernel sequence as a staged
// plan of one kernel per stage.
func TestSequenceRunsKernelsWithBarriers(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	k1 := computeOnly("a", 8, 1e8)
	k2 := computeOnly("b", 8, 1e8)
	if _, _, err := m.RunStages([][]*kernel.Kernel{{k1}, {k2}}); err != nil {
		t.Fatal(err)
	}
	if m.KernelSpans[1].Start < m.KernelSpans[0].End {
		t.Fatal("second kernel launched before the barrier")
	}
}

// buildAGKernel models the AG-GEMM pattern: TB 0 of each row-block loads a
// remote shard via ld.cais (GPU-invariant address), publishing a per-GPU
// copy tile; the remaining TBs of the block consume the copy locally.
func buildAGKernel(m *Machine, rows, cols int, shardBytes int64, copyBuf int) *kernel.Kernel {
	n := m.HW.NumGPUs
	bases := make([]uint64, rows)
	for r := 0; r < rows; r++ {
		bases[r] = m.AllocAddrs(m.HW.RequestChunks(shardBytes))
	}
	return &kernel.Kernel{
		Name: "ag-gemm", Kind: kernel.KindGEMM, Grid: rows * cols,
		Coord: kernel.Coordination{PreLaunch: true, PreAccess: true, Throttle: true},
		Work: func(g, tb int) kernel.TBDesc {
			r, c := tb/cols, tb%cols
			home := r % n
			copyTile := kernel.Tile{Buf: copyBuf, Idx: r*n + g}
			// The loaders form the groups; throttling includes the owner.
			// Consumers join none.
			d := kernel.TBDesc{Flops: 1e8, LocalBytes: 1 << 12, Group: -1}
			if c == 0 {
				d.Group, d.GroupPeers = tb, n
				if home == g {
					// The shard is local: read it from HBM.
					d.Pre = append(d.Pre, kernel.Access{
						Sem: kernel.SemRead, Mode: noc.OpLoad, Local: true,
						Addr: bases[r], Home: g, Bytes: shardBytes,
						Publish: []kernel.Tile{copyTile},
					})
				} else {
					d.Pre = append(d.Pre, kernel.Access{
						Sem: kernel.SemRead, Mode: noc.OpLdCAIS,
						Addr: bases[r], Home: home, Bytes: shardBytes,
						Expected: n - 1,
						Publish:  []kernel.Tile{copyTile},
					})
				}
			} else {
				d.In = append(d.In, copyTile)
			}
			return d
		},
	}
}

func TestAGPatternMergesLoads(t *testing.T) {
	hw := unlimitedHW()
	m := newTestMachine(t, hw, Options{})
	const rows, cols = 8, 4
	shardBytes := int64(8 << 10) // 8 chunks of 1KB
	runKernel(t, m, buildAGKernel(m, rows, cols, shardBytes, m.NewBuffer(rows*hw.NumGPUs)))
	st := m.SwitchStats()
	chunks := int64(shardBytes / hw.RequestBytes)
	// Each remote row (6 of 8 rows per... each row has 3 remote
	// requesters): fetched exactly once per chunk.
	wantFetches := int64(rows) * chunks
	if st.LoadFetches != wantFetches {
		t.Fatalf("fetches = %d, want %d (one per chunk per row)", st.LoadFetches, wantFetches)
	}
	// The other N-2 remote requesters per chunk merged.
	wantMerged := int64(rows) * chunks * int64(hw.NumGPUs-2)
	if st.MergedLoads != wantMerged {
		t.Fatalf("merged = %d, want %d", st.MergedLoads, wantMerged)
	}
	if st.BypassLoads != 0 {
		t.Fatalf("bypasses = %d, want 0 with unlimited table", st.BypassLoads)
	}
}

// buildRSKernel models the GEMM-RS pattern: every GPU's TB computes a
// partial for row r and reduces it to owner(r) via red.cais; the home
// GPU's own partial is a local contribution. The reduced tile publishes at
// the home GPU once all N contributions land.
func buildRSKernel(m *Machine, rows int, tileBytes int64, outBuf int, coordinated bool) *kernel.Kernel {
	n := m.HW.NumGPUs
	bases := make([]uint64, rows)
	for r := 0; r < rows; r++ {
		bases[r] = m.AllocAddrs(m.HW.RequestChunks(tileBytes))
	}
	return &kernel.Kernel{
		Name: "gemm-rs", Kind: kernel.KindGEMM, Grid: rows,
		Coord: kernel.Coordination{PreLaunch: coordinated, PreAccess: coordinated, Throttle: coordinated},
		Work: func(g, tb int) kernel.TBDesc {
			home := tb % n
			redTile := kernel.Tile{Buf: outBuf, Idx: tb}
			peers := n - 1
			if coordinated {
				peers = n // the throttled owner joins its group
			}
			d := kernel.TBDesc{Flops: 1e8, LocalBytes: 1 << 12, Group: tb, GroupPeers: peers}
			a := kernel.Access{
				Sem: kernel.SemReduce, Addr: bases[tb], Home: home,
				Bytes: tileBytes, TileNeed: n,
				Publish: []kernel.Tile{redTile},
			}
			if home == g {
				a.Mode = noc.OpStore
				a.Local = true
			} else {
				a.Mode = noc.OpRedCAIS
				a.Expected = n - 1
			}
			d.Post = append(d.Post, a)
			return d
		},
	}
}

func TestRSPatternMergesReductionsAndPublishes(t *testing.T) {
	hw := unlimitedHW()
	m := newTestMachine(t, hw, Options{})
	const rows = 8
	tileBytes := int64(4 << 10)
	outBuf := m.NewBuffer(rows)
	runKernel(t, m, buildRSKernel(m, rows, tileBytes, outBuf, true))
	// Every reduced tile must have published (N contributions each).
	for r := 0; r < rows; r++ {
		if !m.TileReady(kernel.Tile{Buf: outBuf, Idx: r}) {
			t.Fatalf("reduced tile %d never published", r)
		}
	}
	st := m.SwitchStats()
	chunks := int64(tileBytes / hw.RequestBytes)
	wantSessions := int64(rows) * chunks
	if st.CompletedReds != wantSessions {
		t.Fatalf("completed reduction sessions = %d, want %d", st.CompletedReds, wantSessions)
	}
	if st.PartialFlushes != 0 {
		t.Fatalf("partial flushes = %d, want 0 with coordination + unlimited table", st.PartialFlushes)
	}
}

func TestCoordinationReducesSkew(t *testing.T) {
	hw := unlimitedHW()
	hw.KernelLaunchJitter = 10 * sim.Microsecond
	run := func(coordinated bool) sim.Time {
		m := newTestMachine(t, hw, Options{})
		runKernel(t, m, buildRSKernel(m, 16, 4<<10, m.NewBuffer(16), coordinated))
		return m.SwitchStats().AvgSkew()
	}
	uncoord := run(false)
	coord := run(true)
	if coord >= uncoord {
		t.Fatalf("coordination did not reduce skew: coord=%v uncoord=%v", coord, uncoord)
	}
	if coord > 3*sim.Microsecond {
		t.Fatalf("coordinated skew %v exceeds 3us", coord)
	}
}

func TestCoordinationReducesMergeTableHighWater(t *testing.T) {
	hw := unlimitedHW()
	hw.KernelLaunchJitter = 10 * sim.Microsecond
	run := func(coordinated bool) int64 {
		m := newTestMachine(t, hw, Options{})
		runKernel(t, m, buildRSKernel(m, 32, 4<<10, m.NewBuffer(32), coordinated))
		return m.MergeTableHighWater()
	}
	if c, u := run(true), run(false); c > u {
		t.Fatalf("coordinated high-water %d exceeds uncoordinated %d", c, u)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64) {
		m := newTestMachine(t, testHW(), Options{})
		end := runKernel(t, m, buildRSKernel(m, 16, 4<<10, m.NewBuffer(16), true))
		return end, m.Eng.Steps()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, s1, t2, s2)
	}
}

func TestAddrAllocatorNonOverlapping(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	a := m.AllocAddrs(10)
	b := m.AllocAddrs(5)
	if b < a+10 {
		t.Fatalf("overlapping allocations: a=%d b=%d", a, b)
	}
	if n := m.HW.RequestChunks(4096); n != 4 {
		t.Fatalf("RequestChunks(4096) = %d, want 4 at 1KB chunks", n)
	}
	if m.HW.RequestChunks(0) != 1 {
		t.Fatal("RequestChunks(0) should be 1")
	}
}

// TestCheckQuiescentDetectsStuckDependency: both TBs on each of the four
// GPUs wait on a tile nothing publishes, and the error RunStages returns
// names that tile with all eight waiters.
func TestCheckQuiescentDetectsStuckDependency(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	buf := m.NewBuffer(2)
	never := kernel.Tile{Buf: buf, Idx: 1}
	k := &kernel.Kernel{
		Name: "stuck", Grid: 2,
		Work: func(g, tb int) kernel.TBDesc {
			return kernel.TBDesc{In: []kernel.Tile{never}, Group: -1}
		},
	}
	_, _, err := m.RunStages([][]*kernel.Kernel{{k}})
	if err == nil {
		t.Fatal("stuck dependency not detected")
	}
	if want := fmt.Sprintf("tile{buf=%d idx=1}: 8 TBs waiting", buf); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestAvgLinkUtilizationBounded(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	end := runKernel(t, m, buildRSKernel(m, 16, 16<<10, m.NewBuffer(16), false))
	u := m.AvgLinkUtilization(end)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v out of (0,1]", u)
	}
}

// TestRunStagesAuditsCompletedPlan: GPU 1 posts one store toward a tile
// that needs two whole contributions at GPU 0, and nothing else
// contributes. The plan completes, since a posted store retires its TB
// once issued, but the home GPU's reduction counter stays open, and
// RunStages must report it.
func TestRunStagesAuditsCompletedPlan(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	buf := m.NewBuffer(1)
	addr := m.AllocAddrs(1)
	k := &kernel.Kernel{
		Name: "half-reduced", Grid: 1,
		Work: func(g, tb int) kernel.TBDesc {
			if g != 1 {
				return kernel.TBDesc{Group: -1}
			}
			return kernel.TBDesc{Group: -1, Post: []kernel.Access{{
				Sem: kernel.SemWrite, Mode: noc.OpStore, Addr: addr, Home: 0,
				Bytes: 1 << 10, TileNeed: 2,
				Publish: []kernel.Tile{{Buf: buf, Idx: 0}},
			}}}
		},
	}
	done, _, err := m.RunStages([][]*kernel.Kernel{{k}})
	if done <= 0 {
		t.Fatalf("plan did not complete: done = %v", done)
	}
	if err == nil || !strings.Contains(err.Error(), "1 reduction contributions incomplete") {
		t.Fatalf("RunStages error = %v, want the open reduction counter named", err)
	}
	if m.TileReady(kernel.Tile{Buf: buf, Idx: 0}) {
		t.Fatal("a tile needing two contributions published after one")
	}
}
