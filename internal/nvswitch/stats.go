package nvswitch

import (
	"reflect"
	"strings"

	"cais/internal/metrics"
	"cais/internal/sim"
)

// Stats is the live per-plane statistics collector. Its counts are the
// fields of the embedded Summary, which the switch's hot paths increment
// directly; NewStatsIn registers each field in a metrics.Registry under
// its `metric` tag (naming scheme "<prefix>.<metric>", e.g.
// "nvswitch.plane0.merged_loads"), so the same numbers that drive the
// paper's figures also appear in machine-readable run reports. One Stats
// instance is shared by a plane's ports; experiments fold planes together
// with Summary.Add.
type Stats struct {
	Summary

	sessLifeUS *metrics.Hist

	// Per-address request skew: the delay between the earliest and latest
	// requests targeting the same address (the paper's "average waiting
	// time", Fig. 13b). Tracked independently of merge-session lifetime so
	// evictions don't hide skew. The open-address map is collector state;
	// completed spreads accumulate into Summary.
	skew   map[uint64]*skewEntry
	skewUS *metrics.Hist
}

type skewEntry struct {
	first    sim.Time
	last     sim.Time
	seen     int
	expected int
}

// NewStatsIn returns a collector whose metrics register into reg under
// "<prefix>.<metric>" names: one counter per Summary field (a gauge for a
// field tagged ",max") plus the two distribution histograms.
func NewStatsIn(reg *metrics.Registry, prefix string) *Stats {
	st := &Stats{
		sessLifeUS: reg.Hist(prefix + ".session_lifetime_us"),
		skew:       make(map[uint64]*skewEntry),
		skewUS:     reg.Hist(prefix + ".skew_us"),
	}
	v := reflect.ValueOf(&st.Summary).Elem()
	for i, f := range summaryFields {
		read := v.Field(i).Int
		if f.max {
			reg.GaugeFunc(prefix+"."+f.name, func() float64 { return float64(read()) })
		} else {
			reg.CounterFunc(prefix+"."+f.name, read)
		}
	}
	return st
}

func (st *Stats) noteArrivalKind(addr uint64, expected int, now sim.Time, isLoad bool) {
	if expected <= 1 {
		return
	}
	e, ok := st.skew[addr]
	if !ok {
		e = &skewEntry{first: now, expected: expected}
		st.skew[addr] = e
	}
	e.last = now
	e.seen++
	if e.seen >= e.expected {
		delete(st.skew, addr)
		d := e.last - e.first
		st.SkewSum += d
		st.SkewCount++
		st.skewUS.Observe(d.Microseconds())
		st.SkewMax = max(st.SkewMax, d)
		if isLoad {
			st.LdSkewSum += d
			st.LdSkewCount++
		} else {
			st.RedSkewSum += d
			st.RedSkewCount++
		}
	}
}

func (st *Stats) noteSessionLifetime(d sim.Time) {
	st.SessLifeSum += d
	st.SessLifeCount++
	st.sessLifeUS.Observe(d.Microseconds())
}

// Summary is one plane's (or, after Add, a whole machine's) statistics as
// a plain value: the reporting API consumed by experiments, the CLI and
// tests. Each field's `metric` tag names it in the registry; the one
// tagged ",max" is a high-water mark, which planes fold by maximum and the
// registry reports as a gauge. Every field is int64-kinded.
type Summary struct {
	// NVLS unit.
	MulticastStores int64 `metric:"multicast_stores"` // multimem.st replications
	PullReduces     int64 `metric:"pull_reduces"`     // completed multimem.ld_reduce sessions
	PushReduces     int64 `metric:"push_reduces"`     // completed multimem.red sessions

	// Merge unit (Micro-Functions 1 and 2).
	MergedLoads   int64 `metric:"merged_loads"`   // ld.cais requests absorbed by an existing session
	LoadFetches   int64 `metric:"load_fetches"`   // fetches issued to home GPUs (one per session)
	BypassLoads   int64 `metric:"bypass_loads"`   // loads forwarded unmerged (table saturated)
	MergedReds    int64 `metric:"merged_reds"`    // red.cais contributions accepted into sessions
	CompletedReds int64 `metric:"completed_reds"` // reduction sessions that gathered all contributions
	BypassReds    int64 `metric:"bypass_reds"`    // contributions forwarded unmerged

	// Eviction machinery.
	Evictions        int64 `metric:"evictions"`         // LRU capacity evictions
	PartialFlushes   int64 `metric:"partial_flushes"`   // partial reduction results flushed to home GPUs
	TimeoutEvictions int64 `metric:"timeout_evictions"` // forward-progress timeouts

	// Group Sync Table.
	SyncReleases int64 `metric:"sync_releases"`

	// Fault tolerance (plane failover, see DESIGN.md §8).
	NvlsTimeoutFlushes int64 `metric:"nvls_timeout_flushes"` // NVLS push sessions flushed partial by timeout/failover
	SyncDropped        int64 `metric:"sync_dropped"`         // sync entries dropped at failover, plus registrations reaching the failed plane
	SyncDuplicates     int64 `metric:"sync_duplicates"`      // duplicate registrations tolerated in fault mode

	// Session lifetime (first arrival to release).
	SessLifeSum   sim.Time `metric:"session_lifetime_sum_ps"`
	SessLifeCount int64    `metric:"session_lifetime_count"`

	// Per-address request skew aggregates.
	SkewSum      sim.Time `metric:"skew_sum_ps"`
	SkewCount    int64    `metric:"skew_count"`
	SkewMax      sim.Time `metric:"skew_max_ps,max"`
	LdSkewSum    sim.Time `metric:"load_skew_sum_ps"`
	LdSkewCount  int64    `metric:"load_skew_count"`
	RedSkewSum   sim.Time `metric:"reduction_skew_sum_ps"`
	RedSkewCount int64    `metric:"reduction_skew_count"`
}

// summaryField is one Summary field's `metric` tag.
type summaryField struct {
	name string // registry name under the plane's prefix
	max  bool   // a high-water mark: folds by max, reports as a gauge
}

// summaryFields holds Summary's tags parsed once, in field order.
var summaryFields = func() []summaryField {
	t := reflect.TypeOf(Summary{})
	out := make([]summaryField, t.NumField())
	for i := range out {
		name, opt, _ := strings.Cut(t.Field(i).Tag.Get("metric"), ",")
		out[i] = summaryField{name: name, max: opt == "max"}
	}
	return out
}()

// Add folds another summary in (for summing across planes): every field
// sums except the ",max" high-water mark, which keeps the larger value.
func (s Summary) Add(o Summary) Summary {
	sv, ov := reflect.ValueOf(&s).Elem(), reflect.ValueOf(o)
	for i, f := range summaryFields {
		a, b := sv.Field(i).Int(), ov.Field(i).Int()
		if f.max {
			sv.Field(i).SetInt(max(a, b))
		} else {
			sv.Field(i).SetInt(a + b)
		}
	}
	return s
}

// AvgSkew reports the mean delay between the earliest and latest requests
// to the same address, across all fully-observed addresses.
func (s Summary) AvgSkew() sim.Time {
	if s.SkewCount == 0 {
		return 0
	}
	return s.SkewSum / sim.Time(s.SkewCount)
}

// SkewSamples reports how many addresses contributed to AvgSkew.
func (s Summary) SkewSamples() int64 { return s.SkewCount }
