// Package strategy implements the execution strategies the paper
// evaluates: CAIS itself (with its ablations CAIS-Base, CAIS-Partial and
// CAIS-w/o-Coord) and the nine baselines of Section IV-C — TP-NVLS,
// SP-NVLS, CoCoNet, FuseLib, T3, their NVLS-enhanced variants, and LADM.
// A strategy is a declarative Spec; the executor in run.go lowers a
// workload under the Spec into a core.Session and runs it.
package strategy

import (
	"fmt"
	"strings"

	"cais/internal/kernel"
)

// Layout is the tensor-parallel partitioning scheme (Fig. 1a/1b).
type Layout int

const (
	// BasicTP replicates activations and AllReduces row-GEMM outputs.
	BasicTP Layout = iota
	// SeqParallel shards activations along the sequence and uses
	// ReduceScatter + AllGather.
	SeqParallel
)

func (l Layout) String() string {
	if l == SeqParallel {
		return "tp+sp"
	}
	return "basic-tp"
}

// GatherImpl is how a column-parallel GEMM obtains its full input.
type GatherImpl int

const (
	// AGNone: the input is already replicated (Basic TP).
	AGNone GatherImpl = iota
	// AGNVLS: multimem.st push-mode AllGather (communication kernel).
	AGNVLS
	// AGRing: GPU-driven ring AllGather.
	AGRing
	// AGP2PPush: owners push blocks to every peer with direct stores
	// (T3 without NVLS).
	AGP2PPush
	// AGFusedCAIS: the GEMM issues ld.cais loads itself (compute-aware).
	AGFusedCAIS
	// AGPerTB: every consuming TB re-fetches remote rows with plain
	// loads (LADM).
	AGPerTB
)

// ReduceImpl is how a row-parallel GEMM's partial output is combined.
type ReduceImpl int

const (
	// RedARNVLS: multimem.red push AllReduce (communication kernel).
	RedARNVLS ReduceImpl = iota
	// RedARRing: GPU-driven ring AllReduce.
	RedARRing
	// RedRSNVLSPull: multimem.ld_reduce pull ReduceScatter.
	RedRSNVLSPull
	// RedRSFusedCAIS: the GEMM issues red.cais reductions itself.
	RedRSFusedCAIS
	// RedRSFusedStore: the GEMM pushes partial tiles to the owner with
	// direct stores (T3).
	RedRSFusedStore
	// RedRSFusedNVLSPush: the GEMM pushes partials through multimem.red
	// (T3-NVLS's DMA-based NVLS).
	RedRSFusedNVLSPush
	// RedARFusedCAIS: the GEMM issues broadcast red.cais reductions — the
	// compute-aware GEMM-AR combination of Fig. 1(h), an extension beyond
	// the paper's evaluated SP pipelines.
	RedARFusedCAIS
	// RedRSRing: GPU-driven ring ReduceScatter (no in-switch computing).
	RedRSRing
)

// BarrierMode is the synchronization granularity between kernels.
type BarrierMode int

const (
	// BarrierGlobal puts a global barrier after every kernel: the
	// communication-centric isolation of the NVLS baselines.
	BarrierGlobal BarrierMode = iota
	// BarrierStage groups each communication with its adjacent compute
	// kernel but keeps barriers between operator stages (T3, CAIS-Base).
	BarrierStage
	// BarrierNone launches the whole pipeline at once; ordering comes
	// purely from TB-level tile dependencies (CAIS's graph-level
	// dataflow optimizer).
	BarrierNone
)

// Spec declares one execution strategy.
type Spec struct {
	Name    string
	Gather  GatherImpl
	Reduce  ReduceImpl
	Barrier BarrierMode

	// Chunks > 0 splits collective kernels into per-chunk launches gated
	// on chunk completion (CoCoNet's software pipelining). FusedComm
	// keeps the chunked collective in a single kernel launch (FuseLib).
	Chunks    int
	FusedComm bool

	// Coord is CAIS's merging-aware TB coordination (the Fig. 13b
	// ablation axes), carried by the fused CAIS kernels.
	Coord          kernel.Coordination
	TrafficControl bool // load/reduction virtual channels (Sec. III-C-2)
}

// fullCoord enables every TB coordination mechanism.
var fullCoord = kernel.Coordination{PreLaunch: true, PreAccess: true, Throttle: true}

// String returns the strategy name.
func (s Spec) String() string { return s.Name }

// Layout is the partitioning the strategy's gather implies: activations
// stay replicated (Basic TP) exactly when no column GEMM gathers its input.
func (s Spec) Layout() Layout {
	if s.Gather == AGNone {
		return BasicTP
	}
	return SeqParallel
}

// UsesNVLS reports whether the strategy leverages in-switch computing.
func (s Spec) UsesNVLS() bool {
	switch s.Gather {
	case AGNVLS, AGFusedCAIS:
		return true
	default:
	}
	switch s.Reduce {
	case RedARNVLS, RedRSNVLSPull, RedRSFusedCAIS, RedRSFusedNVLSPush:
		return true
	default:
		return false
	}
}

// The paper's configurations.

// TPNVLS is Basic TP with NVLS AllReduce and global barriers.
func TPNVLS() Spec {
	return Spec{Name: "TP-NVLS", Gather: AGNone, Reduce: RedARNVLS, Barrier: BarrierGlobal}
}

// SPNVLS is TP+SP with NVLS ReduceScatter/AllGather and global barriers.
func SPNVLS() Spec {
	return Spec{Name: "SP-NVLS", Gather: AGNVLS, Reduce: RedRSNVLSPull, Barrier: BarrierGlobal}
}

// CoCoNet overlaps GEMM with chunked ring AllReduce via software
// pipelining (one kernel launch per chunk).
func CoCoNet() Spec {
	return Spec{Name: "CoCoNet", Gather: AGNone, Reduce: RedARRing, Barrier: BarrierStage, Chunks: 4}
}

// FuseLib is the fused-kernel variant of chunked overlap (single launch).
func FuseLib() Spec {
	return Spec{Name: "FuseLib", Gather: AGNone, Reduce: RedARRing, Barrier: BarrierStage, Chunks: 4, FusedComm: true}
}

// T3 uses hardware track-and-trigger: fused GEMM-RS via direct stores and
// fine-grained P2P AllGather, with stage-level barriers.
func T3() Spec {
	return Spec{Name: "T3", Gather: AGP2PPush, Reduce: RedRSFusedStore, Barrier: BarrierStage}
}

// CoCoNetNVLS is CoCoNet with NVLS collectives.
func CoCoNetNVLS() Spec {
	s := CoCoNet()
	s.Name = "CoCoNet-NVLS"
	s.Reduce = RedARNVLS
	return s
}

// FuseLibNVLS is FuseLib with NVLS collectives.
func FuseLibNVLS() Spec {
	s := FuseLib()
	s.Name = "FuseLib-NVLS"
	s.Reduce = RedARNVLS
	return s
}

// T3NVLS is T3 with the DMA-based NVLS design.
func T3NVLS() Spec {
	return Spec{Name: "T3-NVLS", Gather: AGNVLS, Reduce: RedRSFusedNVLSPush, Barrier: BarrierStage}
}

// LADM is locality-aware TB scheduling without in-switch computing:
// per-TB remote fetches and direct-store reductions.
func LADM() Spec {
	return Spec{Name: "LADM", Gather: AGPerTB, Reduce: RedRSFusedStore, Barrier: BarrierNone}
}

// CAIS is the full compute-aware in-switch computing framework.
func CAIS() Spec {
	return Spec{
		Name: "CAIS", Gather: AGFusedCAIS, Reduce: RedRSFusedCAIS, Barrier: BarrierNone,
		Coord: fullCoord, TrafficControl: true,
	}
}

// CAISBase disables TB coordination and the graph-level dataflow
// optimizer (stage barriers, no coordination, no traffic control).
func CAISBase() Spec {
	return Spec{Name: "CAIS-Base", Gather: AGFusedCAIS, Reduce: RedRSFusedCAIS, Barrier: BarrierStage}
}

// CAISPartial is CAIS without traffic control (Fig. 15/16).
func CAISPartial() Spec {
	s := CAIS()
	s.Name = "CAIS-Partial"
	s.TrafficControl = false
	return s
}

// CAISNoCoord is CAIS without merging-aware TB coordination (Fig. 13/14).
func CAISNoCoord() Spec {
	s := CAIS()
	s.Name = "CAIS-w/o-Coord"
	s.Coord = kernel.Coordination{}
	return s
}

// CAISTP is an extension strategy: compute-aware in-switch computing
// applied to the Basic TP layout (the GEMM-AR / AR-GEMM combinations of
// Fig. 1(h)): row-parallel GEMMs issue broadcast red.cais reductions and
// the merged tile is written to every replica, with no AllGather at all.
func CAISTP() Spec {
	return Spec{
		Name: "CAIS-TP", Gather: AGNone, Reduce: RedARFusedCAIS, Barrier: BarrierNone,
		Coord: fullCoord, TrafficControl: true,
	}
}

// Baselines returns the nine baselines of Fig. 11 in paper order.
func Baselines() []Spec {
	return []Spec{
		TPNVLS(), SPNVLS(), CoCoNet(), FuseLib(), T3(),
		CoCoNetNVLS(), FuseLibNVLS(), T3NVLS(), LADM(),
	}
}

// All returns the nine baselines plus CAIS-Base and CAIS.
func All() []Spec {
	return append(Baselines(), CAISBase(), CAIS())
}

// MegatronRing is a reference strategy outside the paper's baseline list:
// TP+SP with plain GPU-driven ring collectives (standard NCCL without any
// in-switch computing) and global barriers — the pre-NVLS status quo.
func MegatronRing() Spec {
	return Spec{Name: "Megatron-Ring", Gather: AGRing, Reduce: RedRSRing, Barrier: BarrierGlobal}
}

// Extensions returns strategies beyond the paper's evaluated set.
func Extensions() []Spec {
	return []Spec{CAISTP(), MegatronRing()}
}

// ByName looks a strategy up case-insensitively among All, the
// CAIS-Partial and CAIS-w/o-Coord ablations and the Extensions. An unknown
// name's error lists every name it accepts.
func ByName(name string) (Spec, error) {
	all := append(All(), CAISPartial(), CAISNoCoord())
	all = append(all, Extensions()...)
	names := make([]string, len(all))
	for i, s := range all {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
		names[i] = s.Name
	}
	return Spec{}, fmt.Errorf("strategy: unknown strategy %q; valid: %s", name, strings.Join(names, ", "))
}
