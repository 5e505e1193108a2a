// Package compiler implements the CAIS compiler support of Section III-B:
// static index analysis of memory-access address expressions (detecting
// GPU-ID invariance) and the lowering decision that rewrites eligible
// instructions to their compute-aware CAIS variants (ld.cais / red.cais)
// while leaving GPU-dependent accesses untouched. TB groups need no
// compiler metadata: a group is the TBs sharing one blockIdx across GPUs
// (Sec. III-B-1), so the fused builders use blockIdx as the group ID.
package compiler

import (
	"fmt"

	"cais/internal/kernel"
	"cais/internal/noc"
)

// Verdict is the analysis result for one access pattern.
type Verdict struct {
	Pattern   kernel.Pattern
	Mergeable bool   // address expression is GPU-invariant
	Mode      noc.Op // CAIS lowering when mergeable; plain op otherwise
	Reason    string // human-readable justification
}

// Analyze performs the static index analysis on one pattern: an access is
// mergeable iff its address expression does not reference the GPU ID —
// then TBs with equal blockIdx on different GPUs touch the same location
// (Fig. 8a). Plain writes are never rewritten: CAIS extends only loads and
// reductions (Fig. 4).
func Analyze(p kernel.Pattern) Verdict {
	v := Verdict{Pattern: p}
	if kernel.UsesParam(p.Addr, kernel.ParamGPU) {
		v.Mergeable = false
		v.Mode = plainMode(p.Sem)
		v.Reason = fmt.Sprintf("address %s references gpuID: GPU-variant, not mergeable", p.Addr)
		return v
	}
	switch p.Sem {
	case kernel.SemRead:
		v.Mergeable = true
		v.Mode = noc.OpLdCAIS
		v.Reason = fmt.Sprintf("address %s is GPU-invariant: rewritten to ld.cais", p.Addr)
	case kernel.SemReduce:
		v.Mergeable = true
		v.Mode = noc.OpRedCAIS
		v.Reason = fmt.Sprintf("address %s is GPU-invariant: rewritten to red.cais", p.Addr)
	default:
		v.Mergeable = false
		v.Mode = plainMode(p.Sem)
		v.Reason = "plain writes have no CAIS variant"
	}
	return v
}

func plainMode(s kernel.Semantic) noc.Op {
	switch s {
	case kernel.SemRead:
		return noc.OpLoad
	case kernel.SemReduce, kernel.SemWrite:
		return noc.OpStore
	}
	panic(fmt.Sprintf("compiler: unknown semantic %v", s))
}
