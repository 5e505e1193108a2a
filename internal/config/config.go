// Package config holds the hardware and workload configuration of the CAIS
// reproduction: the simulated DGX-H100 system parameters (Section IV-A of
// the paper) and the Table I LLM settings.
package config

import (
	"fmt"
	"math"

	"cais/internal/sim"
)

// Hardware describes the simulated multi-GPU system. Defaults follow the
// paper's methodology: an 8-GPU DGX-H100 with four NVSwitch planes, 900 GB/s
// bidirectional (450 GB/s per direction) NVLink per GPU, 250 ns one-way
// GPU<->switch latency, 40 KB per-port merge tables, and the half-scale SM
// count (66) used for the scaled-down LLM variants.
type Hardware struct {
	// Topology.
	NumGPUs         int // GPUs participating in tensor parallelism
	NumSwitchPlanes int // parallel NVSwitch planes (DGX-H100: 4)

	// GPU compute.
	SMsPerGPU    int     // streaming multiprocessors per GPU
	SMFLOPs      float64 // dense BF16 FLOP/s per SM
	HBMBandwidth float64 // bytes/s of local memory bandwidth per GPU

	// Interconnect. LinkBandwidth is the per-GPU aggregate per direction;
	// each of the NumSwitchPlanes planes carries an equal share.
	// LinkEfficiency is the achievable fraction of wire bandwidth beyond
	// what packet queueing models (protocol, flow control, NCCL/NVLS
	// pipeline inefficiency); it is calibrated so the simulated
	// communication:computation ratio matches the paper's measurement
	// (~1.6:1 for LLaMA-7B on 8 GPUs, Fig. 2).
	LinkBandwidth  float64  // bytes/s per direction per GPU (wire rate)
	LinkEfficiency float64  // achievable fraction of wire rate
	LinkLatency    sim.Time // one-way GPU<->switch propagation
	SwitchLatency  sim.Time // switch-internal processing per packet

	// CAIS merge unit (per switch port). A negative MergeTableBytes
	// removes the capacity limit (Fig. 13a's minimal-table probe); a zero
	// MergeTimeout disables the forward-progress timeout, so sessions wait
	// for every expected request.
	MergeTableBytes int64    // capacity of the merging table in bytes
	MergeTimeout    sim.Time // forward-progress eviction timeout

	// Simulation granularity: communication is modeled as requests of
	// RequestBytes each (DESIGN.md §1). Smaller values increase fidelity
	// of the queueing/merging microstudies at higher event cost.
	RequestBytes int64

	// Execution-noise calibration (DESIGN.md §1): these reproduce the
	// uncoordinated inter-GPU request skew the paper measures (~35 us).
	KernelLaunchOverhead sim.Time // fixed per-kernel launch cost
	KernelLaunchJitter   sim.Time // uniform [0, J) extra per (gpu,kernel)
	TBTimeNoise          float64  // fractional per-TB execution-time noise

	// TBOverhead is the fixed dispatch/drain cost per thread block.
	TBOverhead sim.Time

	// ThrottleWindowBytes bounds a GPU's outstanding mergeable request
	// bytes when TB-aware request throttling is enabled (Sec. III-B-2).
	ThrottleWindowBytes int64

	// CommSMs is the number of SMs a dedicated communication kernel
	// occupies (NCCL-style channel count).
	CommSMs int

	// Data type width in bytes (BF16 = 2).
	ElemBytes int

	// Seed for all deterministic pseudo-randomness.
	Seed uint64
}

// DGXH100 returns the paper's simulated system: 8 H100 GPUs at half SM
// count (66), four NVSwitch planes, 450 GB/s per direction per GPU.
func DGXH100() Hardware {
	return Hardware{
		NumGPUs:         8,
		NumSwitchPlanes: 4,
		SMsPerGPU:       66,
		// H100 SXM BF16 tensor-core peak ~ 990 TFLOPS over 132 SMs;
		// the paper's CUTLASS kernels run near peak on the simulator.
		SMFLOPs:      7.5e12,
		HBMBandwidth: 3.35e12, // 3.35 TB/s
		// 900 GB/s bidirectional = 450 GB/s per direction wire rate.
		LinkBandwidth:        450e9,
		LinkEfficiency:       0.45,
		LinkLatency:          250 * sim.Nanosecond,
		SwitchLatency:        50 * sim.Nanosecond,
		MergeTableBytes:      40 << 10, // 40 KB per port
		MergeTimeout:         8 * sim.Microsecond,
		RequestBytes:         8 << 10,
		KernelLaunchOverhead: 2 * sim.Microsecond,
		KernelLaunchJitter:   30 * sim.Microsecond,
		TBTimeNoise:          0.08,
		TBOverhead:           300 * sim.Nanosecond,
		// The paper's Sec. V-C-2 footprint bound: outstanding mergeable
		// bytes per GPU (1280 KB system-wide = 40 KB x 32 ports).
		ThrottleWindowBytes: 1280 << 10,
		CommSMs:             16,
		ElemBytes:           2,
		Seed:                0xCA15,
	}
}

// Magnitude limits on the hardware's rates and times. Far past them a
// transfer, a thread block or a launch can overflow sim.Time, and a run
// reports nonsense instead of a slow machine: over a 1e-300 B/s link a
// packet's +Inf serialization time converts to a negative time and the
// layer finishes faster than healthy, and a 2^62 ps latency schedules an
// event before now. DGX-H100's rates sit about six orders of magnitude
// above minRate, the headroom the fault model grants a straggler, and its
// largest time, the 30 us launch jitter, far below maxTime.
const (
	minRate = 1e6        // bytes or FLOP per second
	maxTime = sim.Second // one simulated second
)

// Validate reports configuration errors that would make a simulation
// meaningless: zero GPUs, rates that are not finite or below minRate,
// negative times or times above maxTime, an efficiency outside [0, 1],
// and similar. None of these fails at run time: the engine clamps a
// negative delay to zero, and an out-of-range rate or time turns into
// arbitrary event times. Every error names its field.
func (h Hardware) Validate() error {
	switch {
	case h.NumGPUs < 1:
		return fmt.Errorf("config: NumGPUs = %d, need >= 1", h.NumGPUs)
	case h.NumSwitchPlanes < 1:
		return fmt.Errorf("config: NumSwitchPlanes = %d, need >= 1", h.NumSwitchPlanes)
	case h.SMsPerGPU < 1:
		return fmt.Errorf("config: SMsPerGPU = %d, need >= 1", h.SMsPerGPU)
	case !(h.LinkEfficiency >= 0 && h.LinkEfficiency <= 1): // NaN fails too
		return fmt.Errorf("config: LinkEfficiency = %g, need in [0, 1] (0 = wire rate)", h.LinkEfficiency)
	case !(h.TBTimeNoise >= 0 && h.TBTimeNoise < 1):
		// At 1 or above a TB's jittered time can go negative.
		return fmt.Errorf("config: TBTimeNoise = %g, need in [0, 1)", h.TBTimeNoise)
	case h.RequestBytes < 1:
		return fmt.Errorf("config: RequestBytes = %d, need >= 1", h.RequestBytes)
	case h.ElemBytes < 1:
		return fmt.Errorf("config: ElemBytes = %d, need >= 1", h.ElemBytes)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SMFLOPs", h.SMFLOPs},
		{"HBMBandwidth", h.HBMBandwidth},
		{"LinkBandwidth", h.LinkBandwidth},
	} {
		if !(f.v >= minRate && !math.IsInf(f.v, 1)) { // NaN fails too
			return fmt.Errorf("config: %s = %g, need finite and >= %g", f.name, f.v, minRate)
		}
	}
	for _, f := range []struct {
		name string
		t    sim.Time
	}{
		{"LinkLatency", h.LinkLatency},
		{"SwitchLatency", h.SwitchLatency},
		{"MergeTimeout", h.MergeTimeout},
		{"KernelLaunchOverhead", h.KernelLaunchOverhead},
		{"KernelLaunchJitter", h.KernelLaunchJitter},
		{"TBOverhead", h.TBOverhead},
	} {
		if f.t < 0 || f.t > maxTime {
			return fmt.Errorf("config: %s = %v, need in [0, %v]", f.name, f.t, maxTime)
		}
	}
	return nil
}

// PlaneBandwidth is the effective per-direction bandwidth of one switch
// plane's link to one GPU.
func (h Hardware) PlaneBandwidth() float64 {
	eff := h.LinkEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return h.LinkBandwidth * eff / float64(h.NumSwitchPlanes)
}

// GPUFLOPs is the total dense FLOP/s of one GPU.
func (h Hardware) GPUFLOPs() float64 {
	return h.SMFLOPs * float64(h.SMsPerGPU)
}

// Model is one LLM configuration from Table I. Layer counts are not in the
// table; they follow the public model definitions (LLaMA-7B: 32) and the
// Megatron-GPT family sizing for the Mega-GPT variants, and only scale
// absolute runtime, not speedup ratios (layers are homogeneous).
type Model struct {
	Name      string
	Hidden    int // hidden size
	FFNHidden int // FFN intermediate size
	Heads     int // attention heads
	SeqLen    int // sequence length
	Batch     int // batch size
	Layers    int // transformer layers
}

// MegaGPT4B is Table I row 1.
func MegaGPT4B() Model {
	return Model{Name: "Mega-GPT-4B", Hidden: 2048, FFNHidden: 8192, Heads: 24, SeqLen: 1024, Batch: 16, Layers: 24}
}

// MegaGPT8B is Table I row 2.
func MegaGPT8B() Model {
	return Model{Name: "Mega-GPT-8B", Hidden: 3072, FFNHidden: 12288, Heads: 32, SeqLen: 1024, Batch: 12, Layers: 32}
}

// LLaMA7B is Table I row 3.
func LLaMA7B() Model {
	return Model{Name: "LLaMA-7B", Hidden: 4096, FFNHidden: 11264, Heads: 32, SeqLen: 3072, Batch: 3, Layers: 32}
}

// TableIModels returns the three evaluation models in paper order.
func TableIModels() []Model {
	return []Model{MegaGPT4B(), MegaGPT8B(), LLaMA7B()}
}

// Validate reports model configuration errors.
func (m Model) Validate() error {
	if m.Hidden < 1 || m.FFNHidden < 1 || m.Heads < 1 || m.SeqLen < 1 || m.Batch < 1 || m.Layers < 1 {
		return fmt.Errorf("config: model %q has non-positive dimension: %+v", m.Name, m)
	}
	return nil
}

// Tokens is the number of tokens processed per step (batch * seqlen).
func (m Model) Tokens() int { return m.Batch * m.SeqLen }

// HeadDim is the per-head dimension (rounded down; Table I's Mega-GPT-4B
// pairs hidden 2048 with 24 heads).
func (m Model) HeadDim() int {
	d := m.Hidden / m.Heads
	if d < 1 {
		d = 1
	}
	return d
}

// Scale returns a copy with the key matrix dimensions multiplied by f
// (Section IV-B / Table II scaled-down methodology). Head count scales with
// hidden so head dimension stays constant.
func (m Model) Scale(f float64) Model {
	s := m
	s.Hidden = roundMult(int(float64(m.Hidden)*f), 64)
	s.FFNHidden = roundMult(int(float64(m.FFNHidden)*f), 64)
	s.Heads = max(1, int(float64(m.Heads)*f))
	for s.Hidden%s.Heads != 0 {
		s.Heads--
	}
	s.Name = fmt.Sprintf("%s-x%.2g", m.Name, f)
	return s
}

func roundMult(v, m int) int {
	if v < m {
		return m
	}
	return (v + m/2) / m * m
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
