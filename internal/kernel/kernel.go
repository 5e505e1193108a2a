// Package kernel defines the kernel intermediate representation the CAIS
// stack operates on: tiled grids of thread blocks, symbolic address
// expressions for the compiler's static index analysis (Fig. 8a), and the
// per-TB work descriptors the GPU model executes.
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
	Group      int      // TB-group ID (compiler-assigned); -1 = ungrouped

	// GroupPeers is the number of GPUs whose TB of this group issues
	// CAIS-tagged instructions and therefore registers with the Group
	// Sync Table. The GPU owning the data accesses it locally and is not
	// part of the group, so this is typically NumGPUs-1. Zero means all
	// GPUs participate.
	GroupPeers int
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

	// Patterns are the symbolic access patterns of the kernel body,
	// consumed by the compiler's static index analysis. They describe
	// the same accesses Work generates concretely.
	Patterns []Pattern

	// CommSMs pins a comm kernel to a fixed SM count (asymmetric kernel
	// overlapping partitions the pool). Zero means the full GPU.
	CommSMs int

	// PreLaunchSync enables pre-launch TB-group synchronization (aligned
	// dispatch across GPUs); PreAccessSync enables pre-access
	// synchronization at the first CAIS-tagged instruction. Full
	// merging-aware coordination (Sec. III-B) enables both.
	PreLaunchSync bool
	PreAccessSync bool

	// Throttled enables TB-aware request throttling.
	Throttled bool
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

// RemoteBytes sums non-local access bytes across the grid for one GPU.
func (k *Kernel) RemoteBytes(gpu int) int64 {
	var total int64
	for tb := 0; tb < k.Grid; tb++ {
		d := k.Work(gpu, tb)
		for _, a := range d.Pre {
			if !a.Local {
				total += a.Bytes
			}
		}
		for _, a := range d.Post {
			if !a.Local {
				total += a.Bytes
			}
		}
	}
	return total
}
