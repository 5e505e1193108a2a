package memo

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/model"
	"cais/internal/sim"
	"cais/internal/strategy"
	"cais/internal/trace"
)

func testPoint() (config.Hardware, strategy.Spec, model.SubLayer) {
	hw := config.DGXH100()
	spec := strategy.CAIS()
	sub := model.SubLayers(config.LLaMA7B())[1]
	return hw, spec, sub
}

// TestKeyDeterministic pins that key construction is a pure function of the
// point: equal inputs digest equally, run after run.
func TestKeyDeterministic(t *testing.T) {
	hw, spec, sub := testPoint()
	opts := strategy.Options{NoControlSideband: true}
	a := KeySubLayer(hw, spec, sub, opts)
	b := KeySubLayer(hw, spec, sub, opts)
	if a != b {
		t.Fatalf("same point digested differently: %#x vs %#x", a, b)
	}
	cfg := config.LLaMA7B()
	la := KeyLayers(hw, spec, cfg, true, 2, opts)
	lb := KeyLayers(hw, spec, cfg, true, 2, opts)
	if la != lb {
		t.Fatalf("same layers point digested differently: %#x vs %#x", la, lb)
	}
}

// TestKeyDomainSeparation pins that a sub-layer point and a layers point
// cannot collide merely by field coincidence: the key builders write
// distinct domain prefixes.
func TestKeyDomainSeparation(t *testing.T) {
	hw, spec, sub := testPoint()
	a := KeySubLayer(hw, spec, sub, strategy.Options{})
	b := KeyLayers(hw, spec, config.LLaMA7B(), false, 1, strategy.Options{})
	if a == b {
		t.Fatal("sub-layer and layers keys collided")
	}
}

// TestKeyDefaultResolution pins the canonicalization contract: a zero
// option and its explicit default are the same point and must hash
// identically (a cold run and a defaulted run would simulate identically).
func TestKeyDefaultResolution(t *testing.T) {
	hw, spec, sub := testPoint()

	nilSched := KeySubLayer(hw, spec, sub, strategy.Options{Faults: nil})
	emptySched := KeySubLayer(hw, spec, sub, strategy.Options{Faults: &faults.Schedule{}})
	if nilSched != emptySched {
		t.Errorf("nil and empty fault schedules hash differently: %#x vs %#x", nilSched, emptySched)
	}

	// A schedule's name is cosmetic (it never reaches the simulation); two
	// schedules differing only in name are the same point.
	f := []faults.Fault{{Kind: faults.Straggler, At: 0, GPU: 0, Plane: faults.All, Factor: 2}}
	named := KeySubLayer(hw, spec, sub, strategy.Options{Faults: &faults.Schedule{Name: "a", Faults: f}})
	renamed := KeySubLayer(hw, spec, sub, strategy.Options{Faults: &faults.Schedule{Name: "b", Faults: f}})
	if named != renamed {
		t.Errorf("schedule name leaked into the key: %#x vs %#x", named, renamed)
	}
}

// TestKeySemanticFieldsDiffer pins that every result-shaping input moves
// the key: seed, fault schedule contents, option knobs, and spec knobs
// hiding behind a shared name.
func TestKeySemanticFieldsDiffer(t *testing.T) {
	hw, spec, sub := testPoint()
	base := KeySubLayer(hw, spec, sub, strategy.Options{})

	seeded := hw
	seeded.Seed = hw.Seed + 1
	if KeySubLayer(seeded, spec, sub, strategy.Options{}) == base {
		t.Error("seed change did not move the key")
	}

	sched := &faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.LinkDegrade, At: 0, Plane: faults.All, GPU: faults.All, Factor: 0.5},
	}}
	faulted := KeySubLayer(hw, spec, sub, strategy.Options{Faults: sched})
	if faulted == base {
		t.Error("fault schedule did not move the key")
	}
	harder := &faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.LinkDegrade, At: 0, Plane: faults.All, GPU: faults.All, Factor: 0.25},
	}}
	if KeySubLayer(hw, spec, sub, strategy.Options{Faults: harder}) == faulted {
		t.Error("fault severity change did not move the key")
	}

	// Fig. 13b's ablation specs share one name while differing in
	// coordination knobs: the full spec is digested, not just the name.
	tweaked := spec
	tweaked.Throttled = !spec.Throttled
	if KeySubLayer(hw, tweaked, sub, strategy.Options{}) == base {
		t.Error("spec knob change behind an unchanged name did not move the key")
	}
}

// TestKeyExcludesWorkerCount pins the exclusion that keeps memoization
// sound under -parallel: the worker count is not an input to any key
// builder (their signatures never see it), so the same point digests
// identically no matter how the sweep is scheduled. The GOMAXPROCS toggle
// below is the strongest runtime probe available for a by-construction
// property.
func TestKeyExcludesWorkerCount(t *testing.T) {
	hw, spec, sub := testPoint()
	before := KeySubLayer(hw, spec, sub, strategy.Options{})
	old := runtime.GOMAXPROCS(1)
	during := KeySubLayer(hw, spec, sub, strategy.Options{})
	runtime.GOMAXPROCS(old)
	if before != during {
		t.Fatal("key depends on runtime parallelism")
	}
}

// TestCacheable pins the bypass rule: any live-callback knob disqualifies
// a point (the callback observes or mutates machine state that a cache hit
// never builds).
func TestCacheable(t *testing.T) {
	if !Cacheable(strategy.Options{NoControlSideband: true, UtilBin: 5, Attrib: true}) {
		t.Error("value-only options should be cacheable")
	}
	if Cacheable(strategy.Options{Progress: func(sim.Time, uint64) {}}) {
		t.Error("Progress callback must bypass the cache")
	}
	if Cacheable(strategy.Options{Tracer: trace.New()}) {
		t.Error("Tracer must bypass the cache")
	}
}

// keyedPoint gathers every key input of both key builders, so one
// reflective walk reaches each field they digest.
type keyedPoint struct {
	HW       config.Hardware
	Spec     strategy.Spec
	Sub      model.SubLayer
	Model    config.Model
	Training bool
	Layers   int
	Opts     strategy.Options
}

func (p *keyedPoint) keys() [2]uint64 {
	return [2]uint64{
		KeySubLayer(p.HW, p.Spec, p.Sub, p.Opts),
		KeyLayers(p.HW, p.Spec, p.Model, p.Training, p.Layers, p.Opts),
	}
}

// fullPoint populates every pointer and slice on the key path, so the walk
// reaches the fault schedule's Fault fields.
func fullPoint() keyedPoint {
	hw, spec, sub := testPoint()
	return keyedPoint{
		HW: hw, Spec: spec, Sub: sub, Model: config.LLaMA7B(), Layers: 2,
		Opts: strategy.Options{Faults: &faults.Schedule{Name: "s", Faults: []faults.Fault{
			{Kind: faults.Straggler, At: 5, For: 7, Plane: faults.All, GPU: 1, Factor: 2},
		}}},
	}
}

// walkFields calls visit for every field reachable from v — through
// pointers and into each slice's first element — with its dotted path.
// Tagged fields are visited but not entered.
func walkFields(t *testing.T, v reflect.Value, path string, visit func(path string, f reflect.Value, tagged bool)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			p := path + "." + f.Name
			if f.Tag.Get("memo") == "-" {
				visit(p, v.Field(i), true)
				continue
			}
			walkFields(t, v.Field(i), p, visit)
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s: fullPoint must populate every pointer on the key path", path)
		}
		walkFields(t, v.Elem(), path, visit)
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: fullPoint must populate every slice on the key path", path)
		}
		walkFields(t, v.Index(0), path+"[0]", visit)
	default:
		visit(path, v, false)
	}
}

// bump changes a scalar in place; it reports false for kinds it cannot vary.
func bump(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		return false
	}
	return true
}

// TestKeyCoversEveryField is the by-construction coverage check: every
// untagged leaf field of the hardware, spec, model, op, options and fault
// key inputs moves the key when changed; a tagged scalar never does; and a
// tagged func or pointer field is only legal in strategy.Options, where
// setting it must make the point uncacheable.
func TestKeyCoversEveryField(t *testing.T) {
	p := fullPoint()
	base := p.keys()
	leaves := 0
	walkFields(t, reflect.ValueOf(&p).Elem(), "point", func(path string, f reflect.Value, tagged bool) {
		saved := reflect.New(f.Type()).Elem()
		saved.Set(f)
		defer f.Set(saved)
		if !tagged {
			leaves++
			if !bump(f) {
				t.Errorf("%s: untagged %s field cannot be keyed", path, f.Kind())
			} else if p.keys() == base {
				t.Errorf("%s: changing it did not move the key", path)
			}
			return
		}
		switch f.Kind() {
		case reflect.Func:
			f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value { return nil }))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			if !bump(f) {
				t.Fatalf("%s: tagged %s field is not varied by this test", path, f.Kind())
			}
			if p.keys() != base {
				t.Errorf("%s: tagged memo:\"-\" but changing it moved the key", path)
			}
			return
		}
		if !strings.HasPrefix(path, "point.Opts.") {
			t.Errorf("%s: tagged %s field outside strategy.Options escapes Cacheable", path, f.Kind())
		} else if Cacheable(p.Opts) {
			t.Errorf("%s: setting it left the point cacheable", path)
		}
	})
	if leaves < 50 {
		t.Fatalf("walk reached only %d leaf fields; the key inputs have more", leaves)
	}
}

// TestDigestRejectsUntaggedFunc pins the guard that keeps the key honest:
// a field the digest cannot encode must be tagged, never skipped silently.
func TestDigestRejectsUntaggedFunc(t *testing.T) {
	type hooked struct {
		N      int
		OnDone func()
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "hooked.OnDone") {
			t.Fatalf("panic %q does not name the untagged field", msg)
		}
	}()
	digest(hooked{})
	t.Fatal("untagged func field digested without a panic")
}
