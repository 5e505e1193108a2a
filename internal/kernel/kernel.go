// Package kernel defines the kernel intermediate representation the CAIS
// stack operates on: tiled grids of thread blocks, affine access patterns
// with the CAIS compiler pass that lowers them (Sec. III-B, Fig. 8a), and
// the per-TB work descriptors the GPU model executes.
//
// A kernel is deliberately represented at thread-block granularity: every
// mechanism the paper builds (request merging, TB-group coordination,
// TB-level dataflow) is defined at this granularity.
package kernel

import (
	"fmt"

	"cais/internal/noc"
)

// Kind classifies kernels for scheduling and reporting.
type Kind int

const (
	// KindGEMM is a tiled matrix multiplication.
	KindGEMM Kind = iota
	// KindLN is layer normalization (row-wise, memory-bound).
	KindLN
	// KindElemwise covers dropout/add/activation kernels.
	KindElemwise
	// KindAttention is the (head-local) attention score/context compute.
	KindAttention
	// KindComm is a dedicated communication kernel (NVLS collectives,
	// ring steps) that occupies a small number of SMs.
	KindComm
)

func (k Kind) String() string {
	switch k {
	case KindGEMM:
		return "gemm"
	case KindLN:
		return "ln"
	case KindElemwise:
		return "elemwise"
	case KindAttention:
		return "attention"
	case KindComm:
		return "comm"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Semantic is the memory-semantic requirement of an access (the paper's
// read/write requirement that must align with the communication mode).
type Semantic int

const (
	// SemRead requires load semantics (e.g. AG-GEMM input gathering).
	SemRead Semantic = iota
	// SemReduce requires reducing-write semantics (e.g. GEMM-RS output).
	SemReduce
	// SemWrite requires plain write semantics.
	SemWrite
)

func (s Semantic) String() string {
	switch s {
	case SemRead:
		return "read"
	case SemReduce:
		return "reduce"
	case SemWrite:
		return "write"
	}
	return fmt.Sprintf("sem(%d)", int(s))
}

// Pattern is one affine access pattern of a kernel body, the index
// expression the CAIS compiler analyzes (Fig. 8a): TB blockIdx on GPU
// gpuID touches Base + ⌊blockIdx/Div⌋·Stride + gpuID·PerGPU. GEMM tile
// indexing is affine in the block and GPU indices, so this form holds
// every access the fused builders emit.
type Pattern struct {
	Sem    Semantic // memory-semantic requirement
	Base   uint64   // address of blockIdx 0 on GPU 0
	Div    int      // TBs per address step (a row block's column tiles); zero means 1
	Stride uint64   // address step per ⌊blockIdx/Div⌋
	PerGPU uint64   // address step per gpuID; zero makes the access GPU-invariant
}

// AddrAt evaluates the pattern's address for TB block on GPU gpu.
func (p Pattern) AddrAt(gpu, block int) uint64 {
	if p.Div > 1 {
		block /= p.Div
	}
	return p.Base + uint64(block)*p.Stride + uint64(gpu)*p.PerGPU
}

// Lower is the CAIS compiler pass: static index analysis plus instruction
// rewriting. An access whose address does not depend on the GPU ID
// (PerGPU == 0) is GPU-invariant: TBs with equal blockIdx on different
// GPUs touch the same location, so a load lowers to ld.cais and a
// reduction to red.cais, and merged reports true. A GPU-variant access
// keeps its plain operation (ld, or st for a reduction). Plain writes are
// never rewritten: CAIS extends only loads and reductions (Fig. 4).
func (p Pattern) Lower() (op noc.Op, merged bool) {
	switch {
	case p.Sem == SemRead && p.PerGPU == 0:
		return noc.OpLdCAIS, true
	case p.Sem == SemReduce && p.PerGPU == 0:
		return noc.OpRedCAIS, true
	case p.Sem == SemRead:
		return noc.OpLoad, false
	default:
		return noc.OpStore, false
	}
}

// Tile identifies one unit of data for TB-level dependency tracking: a
// (buffer, index) pair. Buffers are assigned unique IDs by the workload
// builder.
type Tile struct {
	Buf int
	Idx int
}

// Access is one remote or local memory operation a TB performs.
type Access struct {
	// Sem is the semantic requirement; Mode is the lowered wire
	// operation. Strategies must keep them aligned (that alignment is
	// exactly what CAIS provides and NVLS lacks).
	Sem  Semantic
	Mode noc.Op

	Addr     uint64 // address key (merging/routing)
	Home     int    // owner GPU; == issuing GPU for local accesses
	Bytes    int64  // total bytes moved by this access
	Expected int    // participating requests for merge/sync tracking

	// Publish lists tiles that become ready when this access's data
	// movement completes: at the issuing GPU for loads and local
	// accesses, at the home GPU (via contribution counting) for
	// reductions and stores.
	Publish []Tile

	// PublishEach yields receiver-specific tiles for multicast stores,
	// whose copies land in per-GPU local buffers: when Buf != 0, receiver
	// r publishes the single tile {Buf, Idx + r}.
	PublishEach Tile

	// TileNeed is the number of whole-access contributions required at
	// the home GPU before Publish tiles become ready (reductions: all
	// contributors including the home GPU's local partial). Zero means 1.
	TileNeed int

	// Broadcast marks a reduction whose merged result is written to every
	// GPU's replica (the AllReduce semantics of the paper's GEMM-AR
	// combination, Fig. 1h) instead of only the home GPU.
	Broadcast bool

	// Local marks an access served entirely by the issuing GPU's HBM.
	Local bool
}

// TBDesc describes one thread block's work.
type TBDesc struct {
	Flops      float64  // compute work
	LocalBytes int64    // HBM traffic of the compute phase
	Pre        []Access // performed before compute (loads)
	Post       []Access // performed after compute (writes/reductions)
	In         []Tile   // tiles that must be ready before the TB starts
	Out        []Tile   // tiles published when the TB (and its posts) retire

	// Group is the TB-group ID, the TB's blockIdx. A value >= 0 means the
	// TB synchronizes with its group at every phase its kernel's Coord
	// enables: pre-launch, then pre-access before its Pre accesses if it
	// has any and before its Post accesses if it has any. -1 means it
	// synchronizes with no group. The kernel's builder decides membership.
	Group int

	// GroupPeers is the number of GPUs whose TB of this group joins it,
	// the count the switch's Group Sync Table waits for. Zero means all
	// GPUs.
	GroupPeers int
}

// Coordination selects the merging-aware TB coordination mechanisms
// (Sec. III-B, the Fig. 13b ablation axes) a kernel's grouped TBs use.
// The zero value coordinates nothing.
type Coordination struct {
	PreLaunch bool // pre-launch TB-group synchronization (aligned dispatch)
	PreAccess bool // pre-access synchronization before a TB's accesses
	Throttle  bool // TB-aware request throttling
}

// Kernel is one device kernel: a grid of TBs whose work is produced by the
// Work generator. The same kernel object is launched on every GPU (SPMD);
// Work receives the GPU index.
type Kernel struct {
	Name string
	Kind Kind
	Grid int // number of thread blocks per GPU

	// Work generates TB tb's descriptor on GPU gpu. It must be
	// deterministic: calling it again with the same arguments must yield
	// an equivalent descriptor. It may allocate the descriptor's slices
	// from a per-run arena (the model builders do), so callers must not
	// retain Pre/Post/In/Out slices across a later arena rewind.
	Work func(gpu, tb int) TBDesc

	// CommSMs pins a comm kernel to a fixed SM count (asymmetric kernel
	// overlapping partitions the pool). Zero means the full GPU.
	CommSMs int

	// Coord is the TB-group coordination the kernel's grouped TBs use.
	Coord Coordination
}

// Validate reports structural problems in the kernel definition.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kernel: empty name")
	}
	if k.Grid < 1 {
		return fmt.Errorf("kernel %s: grid %d, need >= 1", k.Name, k.Grid)
	}
	if k.Work == nil {
		return fmt.Errorf("kernel %s: nil Work generator", k.Name)
	}
	return nil
}

// TotalFlops sums compute work across the grid for one GPU.
func (k *Kernel) TotalFlops(gpu int) float64 {
	var total float64
	for tb := 0; tb < k.Grid; tb++ {
		total += k.Work(gpu, tb).Flops
	}
	return total
}
