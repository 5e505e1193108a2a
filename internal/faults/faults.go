// Package faults defines declarative fault schedules for the simulator:
// link bandwidth degradation, link-down windows, switch-plane failures,
// merge-unit disables, and straggler GPUs. A schedule is pure data — the
// injector in internal/machine turns it into onset/repair events on the
// sim clock. Schedules are constructed from Go code or parsed from JSON
// (the caissim -faults flag), and validated against a concrete topology
// before a run. Everything here is deterministic: a given (workload,
// schedule, seed) triple replays bit-identically.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"cais/internal/sim"
)

// Kind identifies a fault class.
type Kind int

const (
	// LinkDegrade scales the bandwidth of the targeted links by Factor
	// (1e-6 <= Factor <= 1) for the fault window; 0.25 models a link that
	// lost 75% of its lanes.
	LinkDegrade Kind = iota
	// LinkDown stalls the targeted links completely: queued traffic holds
	// and resumes at repair. A repair time is mandatory — a permanently
	// dead link would strand queued packets and deadlock the run (kill the
	// whole plane instead, which re-routes).
	LinkDown
	// PlaneDown fails one switch plane: its merge/NVLS state is flushed,
	// its sync-table entries dropped, and all address/group hashing
	// re-routes over the surviving planes. Repair is optional.
	PlaneDown
	// MergeDisable turns off the CAIS merge units on the targeted planes:
	// ld.cais / red.cais requests take the unmerged forwarding fallback
	// (the same path the strategy layer uses for non-CAIS configurations).
	MergeDisable
	// Straggler scales the targeted GPU's thread-block compute time by
	// Factor (1 <= Factor <= 1e6): a thermally throttled or contended GPU.
	Straggler
)

var kindNames = map[Kind]string{
	LinkDegrade:  "link-degrade",
	LinkDown:     "link-down",
	PlaneDown:    "plane-down",
	MergeDisable: "merge-disable",
	Straggler:    "straggler",
}

// kindByName and dirByName are the name tables' inverses, the JSON
// grammar Parse reads, so a named value always parses.
var (
	kindByName = inverse(kindNames)
	dirByName  = inverse(dirNames)
)

// inverse maps each name in a name table back to its value, walking the
// enum up from 0 until a value has no name: caislint's exhaustive check
// keeps every value of the enum in the table.
func inverse[E ~int](names map[E]string) map[string]E {
	out := make(map[string]E, len(names))
	for e := E(0); ; e++ {
		s, ok := names[e]
		if !ok {
			return out
		}
		out[s] = e
	}
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Dir selects which link directions a link fault applies to.
type Dir int

const (
	// DirBoth targets both the GPU->switch and switch->GPU links.
	DirBoth Dir = iota
	// DirUp targets only the GPU->switch uplink.
	DirUp
	// DirDown targets only the switch->GPU downlink.
	DirDown
)

var dirNames = map[Dir]string{DirBoth: "both", DirUp: "up", DirDown: "down"}

func (d Dir) String() string {
	if s, ok := dirNames[d]; ok {
		return s
	}
	return fmt.Sprintf("dir(%d)", int(d))
}

// All is the wildcard target: every plane (or every GPU) the fault kind
// can apply to.
const All = -1

// Fault is one scheduled fault. Zero values of the targeting fields mean
// "plane 0" / "GPU 0"; use All (-1) for wildcards where the kind allows.
type Fault struct {
	Kind Kind
	// At is the onset time on the sim clock.
	At sim.Time
	// For is the duration until repair; 0 means the fault persists to the
	// end of the run (invalid for LinkDown — see Validate).
	For sim.Time
	// Plane targets a switch plane (LinkDegrade, LinkDown, PlaneDown,
	// MergeDisable). All (-1) targets every plane where allowed.
	Plane int
	// GPU targets a GPU: the link endpoint for link faults (All = every
	// GPU's links), the merge-unit port for MergeDisable (All = every
	// port), the slowed device for Straggler (wildcard not allowed — a
	// straggler is one device, not the fleet).
	GPU int
	// Dir selects the link direction(s) for LinkDegrade / LinkDown.
	Dir Dir
	// Factor is the bandwidth scale for LinkDegrade and the compute
	// slowdown for Straggler (ranges on the kinds); ignored otherwise.
	Factor float64
}

// String renders a compact human-readable description, used for trace
// instants and error messages.
func (f Fault) String() string {
	switch f.Kind {
	case LinkDegrade:
		return fmt.Sprintf("%s plane=%d gpu=%d dir=%s factor=%.3g", f.Kind, f.Plane, f.GPU, f.Dir, f.Factor)
	case LinkDown:
		return fmt.Sprintf("%s plane=%d gpu=%d dir=%s", f.Kind, f.Plane, f.GPU, f.Dir)
	case PlaneDown:
		return fmt.Sprintf("%s plane=%d", f.Kind, f.Plane)
	case MergeDisable:
		return fmt.Sprintf("%s plane=%d port=%d", f.Kind, f.Plane, f.GPU)
	case Straggler:
		return fmt.Sprintf("%s gpu=%d factor=%.3g", f.Kind, f.GPU, f.Factor)
	}
	return f.Kind.String()
}

// Schedule is an ordered list of faults. Faults with equal onset times are
// applied in slice order, which makes the whole schedule deterministic.
type Schedule struct {
	Name   string `memo:"-"` // cosmetic label; identical fault lists share a memo key
	Faults []Fault
}

// Empty reports whether the schedule injects nothing. The injector treats
// an empty (or nil) schedule as "no fault machinery at all", so such runs
// are bit-identical to unfaulted ones.
func (s *Schedule) Empty() bool { return s == nil || len(s.Faults) == 0 }

// HasPlaneFault reports whether any fault kills a switch plane. Plane
// failures are the only faults that need the failover machinery (re-route
// hashing, sync re-registration, NVLS completion timeouts) armed.
func (s *Schedule) HasPlaneFault() bool {
	if s == nil {
		return false
	}
	for _, f := range s.Faults {
		if f.Kind == PlaneDown {
			return true
		}
	}
	return false
}

func checkPlane(f Fault, numPlanes int, wildcardOK bool) error {
	if f.Plane == All && wildcardOK {
		return nil
	}
	if f.Plane < 0 || f.Plane >= numPlanes {
		return fmt.Errorf("faults: %s: plane %d out of range [0,%d)", f, f.Plane, numPlanes)
	}
	return nil
}

func checkGPU(f Fault, numGPUs int, wildcardOK bool) error {
	if f.GPU == All && wildcardOK {
		return nil
	}
	if f.GPU < 0 || f.GPU >= numGPUs {
		return fmt.Errorf("faults: %s: gpu %d out of range [0,%d)", f, f.GPU, numGPUs)
	}
	return nil
}

// Magnitude limits. Past them a slowed packet or thread-block time, or
// caissim's whole-model extrapolation of a faulted layer, can overflow
// sim.Time, and a run reports nonsense instead of a slow layer: under a
// 1e-300 degrade or a 1e30 straggler a layer finishes faster than healthy.
const (
	minDegradeFactor   = 1e-6
	maxStragglerFactor = 1e6
	// maxFaultEnd bounds every fault's onset and repair time: one
	// simulated hour, far past any layer, and small enough that
	// extrapolating a faulted layer over a whole model cannot overflow.
	maxFaultEnd = 3600 * sim.Second
)

// Validate checks the schedule against a concrete topology. Rules beyond
// simple range checks: a fault window must end within maxFaultEnd, factors
// must stay within their magnitude limits, LinkDown must have a repair
// time (a permanently dead link deadlocks queued traffic), and at least
// one plane must survive every instant of the run (the re-route hash
// needs a live target).
func (s *Schedule) Validate(numGPUs, numPlanes int) error {
	if s == nil {
		return nil
	}
	if numGPUs < 1 || numPlanes < 1 {
		return fmt.Errorf("faults: topology has %d GPUs / %d planes; need at least 1 of each", numGPUs, numPlanes)
	}
	deadForever := map[int]bool{}
	for i, f := range s.Faults {
		if f.At < 0 {
			return fmt.Errorf("faults: fault %d (%s): negative onset time", i, f)
		}
		if f.For < 0 {
			return fmt.Errorf("faults: fault %d (%s): negative repair delay", i, f)
		}
		if f.At > math.MaxInt64-f.For {
			return fmt.Errorf("faults: fault %d (%s): repair time overflows the sim clock", i, f)
		}
		if f.At+f.For > maxFaultEnd {
			return fmt.Errorf("faults: fault %d (%s): window ends at %v, after one simulated hour", i, f, f.At+f.For)
		}
		switch f.Kind {
		case LinkDegrade:
			if err := checkPlane(f, numPlanes, true); err != nil {
				return err
			}
			if err := checkGPU(f, numGPUs, true); err != nil {
				return err
			}
			if !(f.Factor >= minDegradeFactor && f.Factor <= 1) { // NaN fails too
				return fmt.Errorf("faults: fault %d (%s): degrade factor must be in [%g,1]", i, f, minDegradeFactor)
			}
		case LinkDown:
			if err := checkPlane(f, numPlanes, true); err != nil {
				return err
			}
			if err := checkGPU(f, numGPUs, true); err != nil {
				return err
			}
			if f.For <= 0 {
				return fmt.Errorf("faults: fault %d (%s): link-down requires a repair time (For > 0); to remove a link permanently, fail its plane instead", i, f)
			}
		case PlaneDown:
			if err := checkPlane(f, numPlanes, false); err != nil {
				return err
			}
			if f.For == 0 {
				if deadForever[f.Plane] {
					return fmt.Errorf("faults: fault %d (%s): plane %d already failed permanently", i, f, f.Plane)
				}
				deadForever[f.Plane] = true
			}
		case MergeDisable:
			if err := checkPlane(f, numPlanes, true); err != nil {
				return err
			}
			if err := checkGPU(f, numGPUs, true); err != nil {
				return err
			}
		case Straggler:
			if err := checkGPU(f, numGPUs, false); err != nil {
				return err
			}
			if !(f.Factor >= 1 && f.Factor <= maxStragglerFactor) {
				return fmt.Errorf("faults: fault %d (%s): straggler factor must be in [1,%g]", i, f, maxStragglerFactor)
			}
		default:
			return fmt.Errorf("faults: fault %d: unknown kind %d", i, int(f.Kind))
		}
	}
	return s.checkPlaneSurvives(numPlanes)
}

// checkPlaneSurvives replays the plane-down onsets and repairs in the
// order the injector fires them — by time, and at equal times in the
// order it scheduled them, fault by fault — and reports the first event
// that leaves no plane alive.
func (s *Schedule) checkPlaneSurvives(numPlanes int) error {
	type planeEvent struct {
		at    sim.Time
		fault int
		down  bool
	}
	var evs []planeEvent
	for i, f := range s.Faults {
		if f.Kind != PlaneDown {
			continue
		}
		evs = append(evs, planeEvent{at: f.At, fault: i, down: true})
		if f.For > 0 {
			evs = append(evs, planeEvent{at: f.At + f.For, fault: i})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	down, live := make([]bool, numPlanes), numPlanes
	for _, e := range evs {
		f := s.Faults[e.fault]
		if down[f.Plane] == e.down {
			continue
		}
		down[f.Plane] = e.down
		if !e.down {
			live++
		} else if live--; live == 0 {
			return fmt.Errorf("faults: fault %d (%s) leaves no live plane at %v; at least one must survive every instant", e.fault, f, e.at)
		}
	}
	return nil
}

// jsonFault is the wire form of a Fault. Times are microseconds (the
// natural scale for fault windows); omitted fields default to plane 0 /
// gpu 0 / both directions, and wildcards are spelled -1.
type jsonFault struct {
	Kind   string   `json:"kind"`
	AtUS   float64  `json:"at_us"`
	ForUS  float64  `json:"for_us,omitempty"`
	Plane  *int     `json:"plane,omitempty"`
	GPU    *int     `json:"gpu,omitempty"`
	Dir    string   `json:"dir,omitempty"`
	Factor *float64 `json:"factor,omitempty"`
}

type jsonSchedule struct {
	Name   string      `json:"name"`
	Faults []jsonFault `json:"faults"`
}

// Parse decodes a JSON fault schedule. See DESIGN.md §8 for the grammar.
// Parse does not validate against a topology — call Validate once the
// hardware description is known.
func Parse(data []byte) (*Schedule, error) {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("faults: parse: %w", err)
	}
	s := &Schedule{Name: js.Name, Faults: make([]Fault, 0, len(js.Faults))}
	for i, jf := range js.Faults {
		kind, ok := kindByName[jf.Kind]
		if !ok {
			return nil, fmt.Errorf("faults: fault %d: unknown kind %q (valid: %s)", i, jf.Kind, KindNames())
		}
		f := Fault{Kind: kind, At: sim.Scale(sim.Microsecond, jf.AtUS), For: sim.Scale(sim.Microsecond, jf.ForUS)}
		if jf.Plane != nil {
			f.Plane = *jf.Plane
		}
		if jf.GPU != nil {
			f.GPU = *jf.GPU
		}
		if jf.Factor != nil {
			f.Factor = *jf.Factor
		}
		if jf.Dir != "" { // omitted: both directions, the zero Dir
			if f.Dir, ok = dirByName[jf.Dir]; !ok {
				return nil, fmt.Errorf("faults: fault %d: unknown dir %q (valid: both, up, down)", i, jf.Dir)
			}
		}
		s.Faults = append(s.Faults, f)
	}
	return s, nil
}

// Load reads and parses a JSON fault schedule from a file.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return Parse(data)
}

// KindNames lists the valid JSON kind strings, sorted.
func KindNames() string {
	names := make([]string, 0, len(kindByName))
	for n := range kindByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
