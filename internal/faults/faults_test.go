package faults

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cais/internal/sim"
)

func TestValidateAcceptsWellFormedSchedule(t *testing.T) {
	s := &Schedule{Name: "mixed", Faults: []Fault{
		{Kind: LinkDegrade, Plane: All, GPU: All, Dir: DirBoth, Factor: 0.5},
		{Kind: LinkDown, At: 10 * sim.Microsecond, For: 5 * sim.Microsecond, Plane: 1, GPU: 3, Dir: DirUp},
		{Kind: PlaneDown, At: 20 * sim.Microsecond, Plane: 2},
		{Kind: MergeDisable, Plane: All, GPU: All},
		{Kind: Straggler, GPU: 7, Factor: 2},
	}}
	if err := s.Validate(8, 4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// One live plane at every instant: at 10us plane 0's repair, listed
	// first, fires before plane 1's onset.
	handover := &Schedule{Name: "handover", Faults: []Fault{
		{Kind: PlaneDown, For: 10 * sim.Microsecond, Plane: 0},
		{Kind: PlaneDown, At: 10 * sim.Microsecond, For: 10 * sim.Microsecond, Plane: 1},
		{Kind: PlaneDown, Plane: 2}, {Kind: PlaneDown, Plane: 3},
	}}
	if err := handover.Validate(8, 4); err != nil {
		t.Fatalf("Validate(handover): %v", err)
	}
	// The magnitude limits are inclusive.
	limits := &Schedule{Name: "limits", Faults: []Fault{
		{Kind: LinkDegrade, Plane: All, GPU: All, Factor: 1e-6},
		{Kind: Straggler, GPU: 0, Factor: 1e6},
		{Kind: LinkDown, At: 1800 * sim.Second, For: 1800 * sim.Second, Plane: 0, GPU: 0},
	}}
	if err := limits.Validate(8, 4); err != nil {
		t.Fatalf("Validate(limits): %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want string // substring of the error
	}{
		{"negative onset", Schedule{Faults: []Fault{{Kind: Straggler, At: -1, GPU: 0, Factor: 2}}}, "negative onset"},
		{"negative repair", Schedule{Faults: []Fault{{Kind: Straggler, For: -1, GPU: 0, Factor: 2}}}, "negative repair"},
		{"degrade factor zero", Schedule{Faults: []Fault{{Kind: LinkDegrade, Factor: 0}}}, "degrade factor"},
		{"degrade factor above one", Schedule{Faults: []Fault{{Kind: LinkDegrade, Factor: 1.5}}}, "degrade factor"},
		{"permanent link-down", Schedule{Faults: []Fault{{Kind: LinkDown, Plane: 0, GPU: 0}}}, "requires a repair time"},
		{"plane out of range", Schedule{Faults: []Fault{{Kind: PlaneDown, Plane: 4}}}, "plane 4 out of range"},
		{"plane wildcard not allowed", Schedule{Faults: []Fault{{Kind: PlaneDown, Plane: All}}}, "out of range"},
		{"gpu out of range", Schedule{Faults: []Fault{{Kind: Straggler, GPU: 8, Factor: 2}}}, "gpu 8 out of range"},
		{"straggler wildcard not allowed", Schedule{Faults: []Fault{{Kind: Straggler, GPU: All, Factor: 2}}}, "out of range"},
		{"straggler factor below one", Schedule{Faults: []Fault{{Kind: Straggler, GPU: 0, Factor: 0.5}}}, "straggler factor"},
		{"duplicate permanent plane kill", Schedule{Faults: []Fault{
			{Kind: PlaneDown, Plane: 1}, {Kind: PlaneDown, Plane: 1},
		}}, "already failed permanently"},
		{"all planes dead", Schedule{Faults: []Fault{
			{Kind: PlaneDown, Plane: 0}, {Kind: PlaneDown, Plane: 1},
			{Kind: PlaneDown, Plane: 2}, {Kind: PlaneDown, Plane: 3},
		}}, "at least one must survive"},
		{"unknown kind", Schedule{Faults: []Fault{{Kind: Kind(99)}}}, "unknown kind"},
		{"repair overflows the clock", Schedule{Faults: []Fault{
			{Kind: LinkDegrade, At: 9e18, For: 9e18, Factor: 0.5},
		}}, "overflows the sim clock"},
		{"all planes down at once", Schedule{Faults: []Fault{
			{Kind: PlaneDown, For: 100 * sim.Microsecond, Plane: 0},
			{Kind: PlaneDown, For: 100 * sim.Microsecond, Plane: 1},
			{Kind: PlaneDown, For: 100 * sim.Microsecond, Plane: 2},
			{Kind: PlaneDown, For: 100 * sim.Microsecond, Plane: 3},
		}}, "at least one must survive"},
		// At one instant the injector fires fault by fault: plane 0's
		// onset (fault 0) precedes plane 1's repair (fault 1).
		{"handover in the wrong order", Schedule{Faults: []Fault{
			{Kind: PlaneDown, At: 10 * sim.Microsecond, Plane: 0},
			{Kind: PlaneDown, For: 10 * sim.Microsecond, Plane: 1},
			{Kind: PlaneDown, Plane: 2}, {Kind: PlaneDown, Plane: 3},
		}}, "at least one must survive"},
		{"NaN degrade factor", Schedule{Faults: []Fault{{Kind: LinkDegrade, Factor: math.NaN()}}}, "degrade factor"},
		{"NaN straggler factor", Schedule{Faults: []Fault{{Kind: Straggler, Factor: math.NaN()}}}, "straggler factor"},
		// Magnitudes whose slowed times overflow sim.Time: each once ran
		// a LLaMA-7B layer to completion with a nonsense time.
		{"degrade factor overflows", Schedule{Faults: []Fault{
			{Kind: LinkDegrade, For: 100 * sim.Microsecond, Plane: All, GPU: All, Factor: 1e-300},
		}}, "fault 0 (link-degrade plane=-1 gpu=-1 dir=both factor=1e-300): degrade factor"},
		{"straggler factor overflows", Schedule{Faults: []Fault{
			{Kind: Straggler, For: 100 * sim.Microsecond, GPU: 0, Factor: 1e30},
		}}, "fault 0 (straggler gpu=0 factor=1e+30): straggler factor"},
		{"window past one hour", Schedule{Faults: []Fault{
			{Kind: LinkDown, For: 9_000_000_000_000 * sim.Microsecond, Plane: 0, GPU: 0},
		}}, "fault 0 (link-down plane=0 gpu=0 dir=both): window ends"},
		{"onset past one hour", Schedule{Faults: []Fault{
			{Kind: PlaneDown, At: 3600*sim.Second + 1, Plane: 0},
		}}, "after one simulated hour"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate(8, 4)
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.s.Faults)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateNilSchedule(t *testing.T) {
	var s *Schedule
	if err := s.Validate(8, 4); err != nil {
		t.Fatalf("nil schedule should validate: %v", err)
	}
	if !s.Empty() {
		t.Fatal("nil schedule should be Empty")
	}
	if s.HasPlaneFault() {
		t.Fatal("nil schedule should not report a plane fault")
	}
}

func TestParseJSON(t *testing.T) {
	data := []byte(`{
		"name": "degrade-then-fail",
		"faults": [
			{"kind": "link-degrade", "at_us": 0, "plane": -1, "gpu": -1, "factor": 0.25},
			{"kind": "link-down", "at_us": 10, "for_us": 50, "plane": 1, "gpu": 3, "dir": "up"},
			{"kind": "plane-down", "at_us": 100.5, "plane": 2},
			{"kind": "merge-disable", "at_us": 0},
			{"kind": "straggler", "at_us": 0, "gpu": 5, "factor": 2.5}
		]
	}`)
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "degrade-then-fail" || len(s.Faults) != 5 {
		t.Fatalf("got name=%q faults=%d", s.Name, len(s.Faults))
	}
	if err := s.Validate(8, 4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	f := s.Faults[0]
	if f.Kind != LinkDegrade || f.Plane != All || f.GPU != All || f.Dir != DirBoth || f.Factor != 0.25 {
		t.Errorf("fault 0 decoded as %+v", f)
	}
	f = s.Faults[1]
	if f.Kind != LinkDown || f.At != 10*sim.Microsecond || f.For != 50*sim.Microsecond || f.Dir != DirUp {
		t.Errorf("fault 1 decoded as %+v", f)
	}
	if s.Faults[2].At != sim.Scale(sim.Microsecond, 100.5) {
		t.Errorf("fractional at_us decoded as %v", s.Faults[2].At)
	}
	// Omitted plane/gpu default to 0, not wildcard.
	if s.Faults[3].Plane != 0 || s.Faults[3].GPU != 0 {
		t.Errorf("omitted targets decoded as plane=%d gpu=%d, want 0/0", s.Faults[3].Plane, s.Faults[3].GPU)
	}
	if !s.HasPlaneFault() {
		t.Error("schedule with plane-down should report HasPlaneFault")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte(`{"faults": [{"kind": "gamma-ray"}]}`)); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("unknown kind: got %v", err)
	}
	if _, err := Parse([]byte(`{"faults": [{"kind": "link-down", "dir": "sideways"}]}`)); err == nil || !strings.Contains(err.Error(), "unknown dir") {
		t.Errorf("unknown dir: got %v", err)
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestKindAndDirStrings(t *testing.T) {
	if LinkDegrade.String() != "link-degrade" || PlaneDown.String() != "plane-down" {
		t.Error("kind names wrong")
	}
	if DirUp.String() != "up" || DirBoth.String() != "both" {
		t.Error("dir names wrong")
	}
	if !strings.Contains(KindNames(), "straggler") {
		t.Errorf("KindNames() = %q", KindNames())
	}
}

// TestNamesParseBack: every Kind and Dir name parses back to its value,
// and an omitted dir means both directions. The walk from 0 must reach
// every named value, so the enums stay gap-free for the inverse tables.
func TestNamesParseBack(t *testing.T) {
	parse := func(kind, dir string) Fault {
		t.Helper()
		s, err := Parse([]byte(fmt.Sprintf(`{"faults": [{"kind": %q, "dir": %q}]}`, kind, dir)))
		if err != nil {
			t.Fatalf("kind %q, dir %q: %v", kind, dir, err)
		}
		return s.Faults[0]
	}
	k := Kind(0)
	for ; kindNames[k] != ""; k++ {
		if got := parse(k.String(), "").Kind; got != k {
			t.Errorf("kind %q parses to %v, want %v", k.String(), got, k)
		}
	}
	if int(k) != len(kindNames) {
		t.Errorf("walk from 0 named %d kinds, the table %d", k, len(kindNames))
	}
	d := Dir(0)
	for ; dirNames[d] != ""; d++ {
		if got := parse("link-down", d.String()).Dir; got != d {
			t.Errorf("dir %q parses to %v, want %v", d.String(), got, d)
		}
	}
	if int(d) != len(dirNames) {
		t.Errorf("walk from 0 named %d dirs, the table %d", d, len(dirNames))
	}
	if got := parse("link-down", "").Dir; got != DirBoth {
		t.Errorf("omitted dir parses to %v, want both", got)
	}
}
