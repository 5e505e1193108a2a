package experiments

import (
	"strings"
	"testing"
)

func TestResilienceQuick(t *testing.T) {
	r, err := Resilience(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || len(r.Waits) != 4 {
		t.Fatalf("rows=%d waits=%d, want >0 and 4", len(r.Rows), len(r.Waits))
	}

	// Every fault family starts at a healthy anchor with relative
	// throughput exactly 1, and throughput decays monotonically (never
	// increases) as severity rises — for every strategy.
	byFamily := map[string][]ResilienceRow{}
	var order []string
	for _, row := range r.Rows {
		if _, seen := byFamily[row.Family]; !seen {
			order = append(order, row.Family)
		}
		byFamily[row.Family] = append(byFamily[row.Family], row)
	}
	if len(order) != 3 {
		t.Fatalf("fault families = %v, want 3", order)
	}
	for _, fam := range order {
		rows := byFamily[fam]
		for _, s := range r.Strategies {
			if rows[0].RelTput[s] != 1 {
				t.Errorf("%s/%s: healthy anchor rel tput = %v, want 1", fam, s, rows[0].RelTput[s])
			}
			for i := 1; i < len(rows); i++ {
				if rows[i].RelTput[s] > rows[i-1].RelTput[s] {
					t.Errorf("%s/%s: throughput rose with severity: %v -> %v (%s -> %s)",
						fam, s, rows[i-1].RelTput[s], rows[i].RelTput[s],
						rows[i-1].Severity, rows[i].Severity)
				}
			}
		}
	}

	// The healthy anchors of all families are the same unfaulted run and
	// must agree bit-for-bit (the zero-fault schedule is inert).
	base := byFamily[order[0]][0]
	for _, fam := range order[1:] {
		anchor := byFamily[fam][0]
		for _, s := range r.Strategies {
			if anchor.Elapsed[s] != base.Elapsed[s] {
				t.Errorf("healthy anchor of %s differs for %s: %v vs %v",
					fam, s, anchor.Elapsed[s], base.Elapsed[s])
			}
		}
	}

	// CAIS must stay ahead of every baseline under faults (geomean > 1).
	for s, g := range r.Geomean {
		if g <= 1 {
			t.Errorf("CAIS lost its advantage under faults vs %s: geomean %.3f", s, g)
		}
	}

	out := r.Render()
	for _, want := range []string{"Resilience", "relative throughput", "waiting time", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestResilienceDeterministic: the resilience study, the most intricate
// fold (nested fault cube, healthy anchors, geomeans), renders its
// quick.txt section with the memo off at GOMAXPROCS workers, the one
// configuration the memo ladder in golden_test.go leaves out.
func TestResilienceDeterministic(t *testing.T) {
	out, err := Run("resilience", Quick())
	if err != nil {
		t.Fatal(err)
	}
	checkSection(t, "memo off, GOMAXPROCS workers", "resilience", out)
}

func TestResilienceCoordinationBoundsStragglerWait(t *testing.T) {
	r, err := Resilience(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	// Waits rows: CAIS healthy, CAIS straggler, no-coord healthy,
	// no-coord straggler. Under a straggler, coordination must keep the
	// average wait far below the uncoordinated run.
	caisStraggler, noCoordStraggler := r.Waits[1], r.Waits[3]
	if caisStraggler.SkewUS >= noCoordStraggler.SkewUS {
		t.Fatalf("coordination did not bound straggler wait: %v vs %v",
			caisStraggler.SkewUS, noCoordStraggler.SkewUS)
	}
}
