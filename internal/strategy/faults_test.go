package strategy

import (
	"strings"
	"testing"

	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/sim"
)

// TestPlaneRepairBalancesPools: a plane that fails and comes back leaves
// no pooled object live. During the outage a standby plane serves the
// failed plane's sync groups; at the repair the groups route back, and the
// standby returns their partial Group Sync Table entries, and the
// registrations still draining into it, to its pools.
func TestPlaneRepairBalancesPools(t *testing.T) {
	hw := config.DGXH100()
	hw.RequestBytes = 32 << 10
	quick := config.Model{Name: "Quick-Tiny", Hidden: 512, FFNHidden: 2048, Heads: 4, SeqLen: 512, Batch: 2, Layers: 4}
	sched := &faults.Schedule{Name: "plane-repair", Faults: []faults.Fault{{
		Kind: faults.PlaneDown, At: 20 * sim.Microsecond, For: 30 * sim.Microsecond, Plane: 1, GPU: faults.All,
	}}}
	res, err := RunLayersOpts(hw, CAIS(), quick, false, 1, Options{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, m := range res.Telemetry.Metrics {
		family, ok := strings.CutSuffix(m.Name, ".allocs")
		if !ok || !strings.HasPrefix(family, "pool.") {
			continue
		}
		families++
		if idle := res.Telemetry.Value(family + ".idle"); idle != m.Value {
			t.Errorf("%s: %v of %v pooled objects idle at the end", family, idle, m.Value)
		}
	}
	if families == 0 {
		t.Fatal("no pool.* gauges in the run's telemetry")
	}
	if n := res.Telemetry.Value("faults.repaired"); n != 1 {
		t.Fatalf("faults.repaired = %v, want 1", n)
	}
}
