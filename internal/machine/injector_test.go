package machine

import (
	"testing"

	"cais/internal/faults"
	"cais/internal/sim"
)

// runRS executes the standard coordinated GEMM-RS workload on a machine
// with the given fault schedule and returns (elapsed, steps).
func runRS(t *testing.T, sched *faults.Schedule) (sim.Time, uint64, *Machine) {
	t.Helper()
	m := newTestMachine(t, unlimitedHW(), Options{Faults: sched})
	end := runKernel(t, m, buildRSKernel(m, 16, 4<<10, m.NewBuffer(16), true))
	return end, m.Eng.Steps(), m
}

// faultsActive reads the faults.active gauge: how many injected faults
// are in effect (0 without a schedule, which registers no faults.*).
func faultsActive(m *Machine) int {
	return int(m.Metrics().Snapshot().Value("faults.active"))
}

func TestZeroFaultScheduleIsInert(t *testing.T) {
	base, baseSteps, bm := runRS(t, nil)
	empty, emptySteps, em := runRS(t, &faults.Schedule{Name: "empty"})
	if base != empty || baseSteps != emptySteps {
		t.Fatalf("empty schedule perturbed the run: (%v,%d) vs baseline (%v,%d)",
			empty, emptySteps, base, baseSteps)
	}
	for _, m := range []*Machine{bm, em} {
		if faultsActive(m) != 0 || m.reroutes != 0 {
			t.Fatalf("fault state on an unfaulted machine: active=%d reroutes=%d",
				faultsActive(m), m.reroutes)
		}
		if _, ok := m.Metrics().Snapshot().Get("faults.applied"); ok {
			t.Fatal("faults.* metrics registered without a schedule")
		}
	}
}

func TestLinkDegradeSlowsRun(t *testing.T) {
	base, _, _ := runRS(t, nil)
	deg, _, m := runRS(t, &faults.Schedule{Name: "degrade", Faults: []faults.Fault{
		{Kind: faults.LinkDegrade, At: 0, Plane: faults.All, GPU: faults.All, Factor: 0.25},
	}})
	if deg <= base {
		t.Fatalf("75%% degradation did not slow the run: %v <= baseline %v", deg, base)
	}
	snap := m.Metrics().Snapshot()
	if snap.Value("faults.applied") != 1 {
		t.Fatalf("faults.applied = %v, want 1", snap.Value("faults.applied"))
	}
	if faultsActive(m) != 1 {
		t.Fatalf("active faults = %d, want 1 (permanent degrade)", faultsActive(m))
	}
}

func TestLinkDownWindowStallsAndRecovers(t *testing.T) {
	base, _, _ := runRS(t, nil)
	// Take GPU 1's plane-0 uplink down for a window straddling the run.
	down, _, m := runRS(t, &faults.Schedule{Name: "outage", Faults: []faults.Fault{
		{Kind: faults.LinkDown, At: 5 * sim.Microsecond, For: 40 * sim.Microsecond,
			Plane: 0, GPU: 1, Dir: faults.DirUp},
	}})
	if down < base {
		t.Fatalf("link outage sped up the run: %v < baseline %v", down, base)
	}
	snap := m.Metrics().Snapshot()
	if snap.Value("faults.applied") != 1 || snap.Value("faults.repaired") != 1 {
		t.Fatalf("applied/repaired = %v/%v, want 1/1", snap.Value("faults.applied"), snap.Value("faults.repaired"))
	}
	if faultsActive(m) != 0 {
		t.Fatalf("active faults after repair = %d, want 0", faultsActive(m))
	}
	if m.upLink[0][1].Down() {
		t.Fatal("uplink still down after the repair event")
	}
}

func TestPlaneDownFailoverCompletes(t *testing.T) {
	_, _, m := runRS(t, &faults.Schedule{Name: "plane-kill", Faults: []faults.Fault{
		{Kind: faults.PlaneDown, At: 3 * sim.Microsecond, Plane: 1, GPU: faults.All},
	}})
	if m.planeAlive[1] {
		t.Fatal("plane 1 still marked alive")
	}
	if m.reroutes == 0 {
		t.Fatal("no packets rerouted around the dead plane")
	}
	// Routing invariants after the kill: everything lands on plane 0.
	for addr := uint64(1); addr < 64; addr++ {
		if m.RouteAddr(addr) != 0 {
			t.Fatalf("addr %d routed to dead plane", addr)
		}
	}
	for g := 0; g < 8; g++ {
		if m.RouteGroup(g) != 0 {
			t.Fatalf("group %d routed to dead plane", g)
		}
	}
}

func TestPlaneDownThenRepair(t *testing.T) {
	_, _, m := runRS(t, &faults.Schedule{Name: "plane-blip", Faults: []faults.Fault{
		{Kind: faults.PlaneDown, At: 3 * sim.Microsecond, For: 30 * sim.Microsecond,
			Plane: 0, GPU: faults.All},
	}})
	if !m.planeAlive[0] {
		t.Fatal("plane 0 not restored after repair")
	}
	// Static routing restored: addr hash is the identity plane hash again.
	for addr := uint64(1); addr < 16; addr++ {
		if got, want := m.RouteAddr(addr), int(addr%2); got != want {
			t.Fatalf("RouteAddr(%d) = %d after repair, want %d", addr, got, want)
		}
	}
}

func TestMergeDisableForcesBypass(t *testing.T) {
	_, _, m := runRS(t, &faults.Schedule{Name: "no-merge", Faults: []faults.Fault{
		{Kind: faults.MergeDisable, At: 0, Plane: faults.All, GPU: faults.All},
	}})
	st := m.SwitchStats()
	if st.BypassReds == 0 {
		t.Fatal("disabled merge units absorbed no bypass reductions")
	}
	if st.MergedReds != 0 {
		t.Fatalf("disabled merge units still merged %d contributions", st.MergedReds)
	}
}

func TestStragglerSlowsRun(t *testing.T) {
	base, _, _ := runRS(t, nil)
	slow, _, m := runRS(t, &faults.Schedule{Name: "straggler", Faults: []faults.Fault{
		{Kind: faults.Straggler, At: 0, GPU: 0, Plane: faults.All, Factor: 4},
	}})
	if slow <= base {
		t.Fatalf("4x straggler did not slow the run: %v <= baseline %v", slow, base)
	}
	if m.GPUs[0].ComputeSlowdown() != 4 {
		t.Fatalf("gpu0 slowdown = %v, want 4", m.GPUs[0].ComputeSlowdown())
	}
}

func TestStragglerRepairRestoresSpeed(t *testing.T) {
	_, _, m := runRS(t, &faults.Schedule{Name: "transient-straggler", Faults: []faults.Fault{
		{Kind: faults.Straggler, At: 0, For: 10 * sim.Microsecond, GPU: 2, Plane: faults.All, Factor: 2},
	}})
	if m.GPUs[2].ComputeSlowdown() != 1 {
		t.Fatalf("gpu2 slowdown = %v after repair, want 1", m.GPUs[2].ComputeSlowdown())
	}
}

func TestFaultedRunsAreDeterministic(t *testing.T) {
	sched := &faults.Schedule{Name: "mixed", Faults: []faults.Fault{
		{Kind: faults.LinkDegrade, At: 2 * sim.Microsecond, For: 20 * sim.Microsecond,
			Plane: faults.All, GPU: faults.All, Factor: 0.5},
		{Kind: faults.PlaneDown, At: 5 * sim.Microsecond, Plane: 1, GPU: faults.All},
		{Kind: faults.Straggler, At: 0, GPU: 3, Plane: faults.All, Factor: 1.5},
	}}
	t1, s1, m1 := runRS(t, sched)
	t2, s2, m2 := runRS(t, sched)
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic faulted run: (%v,%d) vs (%v,%d)", t1, s1, t2, s2)
	}
	if m1.reroutes != m2.reroutes {
		t.Fatalf("reroute counts differ: %d vs %d", m1.reroutes, m2.reroutes)
	}
}

func TestInvalidScheduleRejectedAtAssembly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range plane fault not rejected")
		}
	}()
	newTestMachine(t, testHW(), Options{Faults: &faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.PlaneDown, At: 0, Plane: 99, GPU: faults.All},
	}}})
}

// A plane failure while heavy ld.cais fan-in is in flight: the AG workload
// exercises the pull-path re-route (pullTag) and sync failover together.
func TestPlaneDownDuringAGPattern(t *testing.T) {
	m := newTestMachine(t, unlimitedHW(), Options{
		Faults: &faults.Schedule{Name: "ag-plane-kill", Faults: []faults.Fault{
			{Kind: faults.PlaneDown, At: 4 * sim.Microsecond, Plane: 0, GPU: faults.All},
		}}})
	runKernel(t, m, buildAGKernel(m, 8, 4, 8<<10, m.NewBuffer(8*m.HW.NumGPUs)))
}
