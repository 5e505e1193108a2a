package memo

import (
	"fmt"
	"math"
	"reflect"

	"cais/internal/config"
	"cais/internal/model"
	"cais/internal/strategy"
)

// hasher accumulates a canonical FNV-1a-64 digest. Every write is
// fixed-width or length-prefixed, so the encoding is prefix-free: two
// different field sequences cannot collide by concatenation.
type hasher struct{ h uint64 }

const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

func (h *hasher) byte(b byte) {
	h.h ^= uint64(b)
	h.h *= fnvPrime
}

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// value writes v in field-declaration order: ints, uints, bools and float
// bit patterns fixed-width; strings and slices prefixed with their length;
// pointers as a nil marker, then the element. Struct fields tagged
// `memo:"-"` are skipped. Any other func, map, chan or interface value
// panics: the key would silently miss whatever it holds.
func (h *hasher) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h.byte(1)
		} else {
			h.byte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.u64(math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		h.u64(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h.byte(s[i])
		}
	case reflect.Slice:
		h.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			h.byte(0)
			return
		}
		h.byte(1)
		h.value(v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Tag.Get("memo") == "-" {
				continue
			}
			switch f.Type.Kind() {
			case reflect.Func, reflect.Map, reflect.Chan, reflect.Interface:
				panic(fmt.Sprintf("memo: cannot digest %s field %s.%s; tag it `memo:\"-\"` and make Cacheable reject runs that set it",
					f.Type.Kind(), t, f.Name))
			}
			h.value(v.Field(i))
		}
	default:
		panic(fmt.Sprintf("memo: cannot digest a value of type %s", v.Type()))
	}
}

// digest returns the canonical digest of a key value.
func digest(key any) uint64 {
	h := hasher{h: fnvOffset}
	h.value(reflect.ValueOf(key))
	return h.h
}

// canonical resolves defaults before hashing, so a zero knob and its
// explicit default key identically: an empty fault schedule is
// bit-identical to none at run time (faults.Schedule.Empty).
func canonical(o strategy.Options) strategy.Options {
	if o.Faults.Empty() {
		o.Faults = nil
	}
	return o
}

// Cacheable reports whether a point's options permit memoization. The
// observers left out of the key (the `memo:"-"` pointer and func fields of
// strategy.Options) watch a live machine that a cache hit never builds,
// so setting any of them bypasses the cache.
func Cacheable(o strategy.Options) bool {
	return o.Tracer == nil && o.Progress == nil
}

// KeySubLayer digests a strategy.RunSubLayer point.
func KeySubLayer(hw config.Hardware, spec strategy.Spec, sub model.SubLayer, opts strategy.Options) uint64 {
	return digest(struct {
		Domain string
		HW     config.Hardware
		Spec   strategy.Spec
		Sub    model.SubLayer
		Opts   strategy.Options
	}{"sublayer", hw, spec, sub, canonical(opts)})
}

// KeyLayers digests a strategy.RunLayersOpts point.
func KeyLayers(hw config.Hardware, spec strategy.Spec, cfg config.Model, training bool, layers int, opts strategy.Options) uint64 {
	return digest(struct {
		Domain   string
		HW       config.Hardware
		Spec     strategy.Spec
		Model    config.Model
		Training bool
		Layers   int
		Opts     strategy.Options
	}{"layers", hw, spec, cfg, training, layers, canonical(opts)})
}
