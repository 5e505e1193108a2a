package machine

import (
	"cais/internal/faults"
	"cais/internal/noc"
	"cais/internal/nvswitch"
	"cais/internal/trace"
)

// injector plays a fault schedule back on the sim clock: one onset event
// per fault, plus a repair event for faults with a finite duration. All
// events are scheduled during assembly, before the workload's own t=0
// events, so fault application order is deterministic and independent of
// the workload.
type injector struct {
	m      *Machine
	active int

	applied  int64 // onsets fired
	repaired int64 // repairs fired
}

// installFaults arms the injector when the machine's options carry a
// non-empty schedule. With no schedule this is a single nil check — no
// metrics, no state, no behavioral difference from an unfaulted build.
func (m *Machine) installFaults() {
	sched := m.Opts.Faults
	if sched.Empty() {
		return
	}
	if err := sched.Validate(m.HW.NumGPUs, m.HW.NumSwitchPlanes); err != nil {
		panic(err)
	}
	inj := &injector{m: m}
	m.reg.CounterFunc("faults.applied", func() int64 { return inj.applied })
	m.reg.CounterFunc("faults.repaired", func() int64 { return inj.repaired })
	m.reg.GaugeFunc("faults.active", func() float64 { return float64(inj.active) })
	m.reg.GaugeFunc("faults.reroutes", func() float64 { return float64(m.reroutes) })
	m.reg.GaugeFunc("faults.sync_reregistrations", func() float64 {
		var n int64
		for _, g := range m.GPUs {
			n += g.Synchronizer().Reregistrations
		}
		return float64(n)
	})
	m.reg.GaugeFunc("faults.sync_retries", func() float64 {
		var n int64
		for _, g := range m.GPUs {
			n += g.Synchronizer().Retries
		}
		return float64(n)
	})
	m.reg.GaugeFunc("faults.stale_releases", func() float64 {
		var n int64
		for _, g := range m.GPUs {
			n += g.Synchronizer().StaleReleases
		}
		return float64(n)
	})
	if sched.HasPlaneFault() {
		// Arm the failover protocol everywhere: NVLS completion timeouts
		// and idempotent sync registration on the switches, duplicate-
		// release tolerance on the GPUs. Schedules without plane faults
		// keep the strict healthy-run invariants.
		for _, sw := range m.Switches {
			sw.SetFaultTolerant(true)
		}
		for _, g := range m.GPUs {
			g.Synchronizer().SetLenient(true)
		}
	}
	for i := range sched.Faults {
		f := sched.Faults[i]
		m.Eng.At(f.At, func() { inj.apply(f) })
		if f.For > 0 {
			m.Eng.At(f.At+f.For, func() { inj.repair(f) })
		}
	}
}

func (inj *injector) instant(label string) {
	m := inj.m
	if m.tr.Enabled() {
		m.tr.Instant(trace.PIDMachine, 0, "faults", label, m.Eng.Now())
	}
}

func (inj *injector) apply(f faults.Fault) {
	m := inj.m
	inj.applied++
	inj.active++
	inj.instant("onset: " + f.String())
	switch f.Kind {
	case faults.LinkDegrade:
		inj.eachLink(f, func(l *noc.Link) { l.SetBandwidthScale(f.Factor) })
	case faults.LinkDown:
		inj.eachLink(f, func(l *noc.Link) { l.SetDown(true) })
	case faults.PlaneDown:
		m.planeAlive[f.Plane] = false
		m.recomputeSurvivors()
		// Flush the dead plane's state first, then sweep the GPUs so sync
		// waits registered there re-register on a survivor.
		m.Switches[f.Plane].Failover()
		m.resync()
	case faults.MergeDisable:
		inj.eachMergeUnit(f, func(u *nvswitch.MergeUnit) { u.SetDisabled(true) })
	case faults.Straggler:
		m.GPUs[f.GPU].SetComputeSlowdown(f.Factor)
	}
}

func (inj *injector) repair(f faults.Fault) {
	m := inj.m
	inj.repaired++
	inj.active--
	inj.instant("repair: " + f.String())
	switch f.Kind {
	case faults.LinkDegrade:
		inj.eachLink(f, func(l *noc.Link) { l.SetBandwidthScale(1) })
	case faults.LinkDown:
		inj.eachLink(f, func(l *noc.Link) { l.SetDown(false) })
	case faults.PlaneDown:
		m.planeAlive[f.Plane] = true
		m.recomputeSurvivors()
		m.Switches[f.Plane].Repair()
		// Routing reverted: waits registered on the standby plane during
		// the outage move back, so all peers of a group meet at one table.
		m.resync()
	case faults.MergeDisable:
		inj.eachMergeUnit(f, func(u *nvswitch.MergeUnit) { u.SetDisabled(false) })
	case faults.Straggler:
		m.GPUs[f.GPU].SetComputeSlowdown(1)
	}
}

// resync follows a change of group routing: every plane drops the Group
// Sync Table entries of the groups it no longer serves, then every GPU
// re-registers its moved waits on their new plane.
func (m *Machine) resync() {
	for _, sw := range m.Switches {
		sw.DropRerouted()
	}
	for _, g := range m.GPUs {
		g.Synchronizer().Resync()
	}
}

// eachLink visits the links a link fault targets, in (plane, gpu,
// up-before-down) order.
func (inj *injector) eachLink(f faults.Fault, fn func(l *noc.Link)) {
	m := inj.m
	for pl := 0; pl < m.HW.NumSwitchPlanes; pl++ {
		if f.Plane != faults.All && f.Plane != pl {
			continue
		}
		for g := 0; g < m.HW.NumGPUs; g++ {
			if f.GPU != faults.All && f.GPU != g {
				continue
			}
			if f.Dir == faults.DirBoth || f.Dir == faults.DirUp {
				fn(m.upLink[pl][g])
			}
			if f.Dir == faults.DirBoth || f.Dir == faults.DirDown {
				fn(m.downLink[pl][g])
			}
		}
	}
}

// eachMergeUnit visits the merge units a merge-disable fault targets (GPU
// selects the port), in (plane, port) order.
func (inj *injector) eachMergeUnit(f faults.Fault, fn func(u *nvswitch.MergeUnit)) {
	m := inj.m
	for pl := 0; pl < m.HW.NumSwitchPlanes; pl++ {
		if f.Plane != faults.All && f.Plane != pl {
			continue
		}
		for g := 0; g < m.HW.NumGPUs; g++ {
			if f.GPU != faults.All && f.GPU != g {
				continue
			}
			fn(m.Switches[pl].Port(g))
		}
	}
}
