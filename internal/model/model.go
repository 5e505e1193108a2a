// Package model builds the LLM tensor-parallel workloads of the paper's
// evaluation: it decomposes transformer layers (Table I configurations)
// into operator sequences under Basic TP and TP+Sequence-Parallelism
// (Fig. 1a/1b), and provides the kernel builders the execution strategies
// lower those operators with — local GEMMs, CAIS-fused AG-GEMM / GEMM-RS,
// NVLS and ring collectives, row-wise (LayerNorm, elementwise) and
// attention kernels. Both layouts are one idea: a tensor tiled into
// 128x128 blocks, held once at each block's row owner or once per GPU —
// the two values of a Tensor's copy count.
package model

import (
	"fmt"

	"cais/internal/config"
)

// TileM and TileN are the GEMM thread-block tile dimensions (CUTLASS-style
// 128x128 tiles).
const (
	TileM = 128
	TileN = 128
)

// l2Reuse approximates the L2/shared-memory reuse factor applied to a GEMM
// TB's HBM traffic (operand tiles are shared between neighboring TBs).
const l2Reuse = 4

// OpKind classifies the operators a transformer layer decomposes into.
type OpKind int

const (
	// OpColGEMM is a column-parallel GEMM: weights sharded along the
	// output dimension; input must be full (gathered under SP,
	// replicated under Basic TP); output is local.
	OpColGEMM OpKind = iota
	// OpRowGEMM is a row-parallel GEMM: weights sharded along the input
	// dimension; output is a full-size partial sum that requires a
	// ReduceScatter (SP) or AllReduce (Basic TP).
	OpRowGEMM
	// OpLN is layer normalization.
	OpLN
	// OpElemwise covers GeLU / dropout / residual-add.
	OpElemwise
	// OpAttention is the head-local attention compute.
	OpAttention
)

func (k OpKind) String() string {
	switch k {
	case OpColGEMM:
		return "col-gemm"
	case OpRowGEMM:
		return "row-gemm"
	case OpLN:
		return "ln"
	case OpElemwise:
		return "elemwise"
	case OpAttention:
		return "attention"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// OpSpec is one operator instance with its full (unpartitioned)
// dimensions; strategies apply the TP partitioning during lowering.
type OpSpec struct {
	Name string
	Kind OpKind

	// GEMM dims: output is M x N, contraction over K (full sizes; the
	// lowering divides N (col) or K (row) by the TP degree).
	M, N, K int

	// LN/elemwise dims.
	Rows, Cols int

	// Attention dims.
	Batch, Heads, Seq, HeadDim int

	// BackwardScale multiplies GEMM compute for backward ops (dgrad +
	// wgrad share the communication pattern of one forward GEMM).
	BackwardScale float64
}

// ComputeScale returns the GEMM work multiplier (1 forward, 2 backward).
func (o OpSpec) ComputeScale() float64 {
	if o.BackwardScale > 0 {
		return o.BackwardScale
	}
	return 1
}

// Phase selects forward or backward decomposition.
type Phase int

const (
	// Forward is the inference/prefill direction.
	Forward Phase = iota
	// Backward adds gradient GEMMs with mirrored communication.
	Backward
)

func (p Phase) String() string {
	if p == Backward {
		return "backward"
	}
	return "forward"
}

// LayerOps decomposes one transformer layer into its operator sequence.
// The forward sequence alternates the paper's communication-relevant
// patterns: (LN ->) AG + col-GEMM ... row-GEMM + RS (-> add); under Basic
// TP the AG and RS boundaries become no-comm and AllReduce respectively.
//
// The backward sequence traverses the layer in reverse with mirrored
// communication (Fig. 1b's g / g-bar duality: the forward ReduceScatter
// point becomes a backward AllGather and vice versa): the forward
// row-parallel GEMMs back-propagate as gather + column-parallel dgrads,
// and the forward column-parallel GEMMs as row-parallel dgrads + reduce.
// Weight-gradient GEMMs are communication-free and folded into the 2x
// backward compute scale.
func LayerOps(m config.Model, phase Phase) []OpSpec {
	tokens := m.Tokens()
	if phase == Backward {
		return []OpSpec{
			{Name: "add2-grad", Kind: OpElemwise, Rows: tokens, Cols: m.Hidden},
			// d(FFN2 input) = dY @ W2^T: gathers the sharded output grad.
			{Name: "ffn2-dgrad", Kind: OpColGEMM, M: tokens, N: m.FFNHidden, K: m.Hidden, BackwardScale: 2},
			{Name: "gelu-grad", Kind: OpElemwise, Rows: tokens, Cols: m.FFNHidden},
			// d(FFN1 input) = dGelu @ W1^T: partial sum over the FFN shard.
			{Name: "ffn1-dgrad", Kind: OpRowGEMM, M: tokens, N: m.Hidden, K: m.FFNHidden, BackwardScale: 2},
			{Name: "ln2-grad", Kind: OpLN, Rows: tokens, Cols: m.Hidden},
			{Name: "add1-grad", Kind: OpElemwise, Rows: tokens, Cols: m.Hidden},
			{Name: "out-proj-dgrad", Kind: OpColGEMM, M: tokens, N: m.Hidden, K: m.Hidden, BackwardScale: 2},
			{Name: "attn-grad", Kind: OpAttention, Batch: m.Batch, Heads: m.Heads, Seq: m.SeqLen, HeadDim: m.HeadDim(), BackwardScale: 2},
			{Name: "qkv-dgrad", Kind: OpRowGEMM, M: tokens, N: m.Hidden, K: 3 * m.Hidden, BackwardScale: 2},
			{Name: "ln1-grad", Kind: OpLN, Rows: tokens, Cols: m.Hidden},
		}
	}
	return []OpSpec{
		{Name: "ln1", Kind: OpLN, Rows: tokens, Cols: m.Hidden},
		{Name: "qkv", Kind: OpColGEMM, M: tokens, N: 3 * m.Hidden, K: m.Hidden},
		{Name: "attn", Kind: OpAttention, Batch: m.Batch, Heads: m.Heads, Seq: m.SeqLen, HeadDim: m.HeadDim()},
		{Name: "out-proj", Kind: OpRowGEMM, M: tokens, N: m.Hidden, K: m.Hidden},
		{Name: "add1", Kind: OpElemwise, Rows: tokens, Cols: m.Hidden},
		{Name: "ln2", Kind: OpLN, Rows: tokens, Cols: m.Hidden},
		{Name: "ffn1", Kind: OpColGEMM, M: tokens, N: m.FFNHidden, K: m.Hidden},
		{Name: "gelu", Kind: OpElemwise, Rows: tokens, Cols: m.FFNHidden},
		{Name: "ffn2", Kind: OpRowGEMM, M: tokens, N: m.Hidden, K: m.FFNHidden},
		{Name: "add2", Kind: OpElemwise, Rows: tokens, Cols: m.Hidden},
	}
}

// SubLayer identifies the four communication-intensive sub-layers of
// Fig. 12: each is a row-GEMM -> LN -> col-GEMM pipeline (GEMM-RS + LN +
// AG-GEMM under SP).
type SubLayer struct {
	ID   string // L1..L4
	Desc string `memo:"-"` // display text; ID names the pipeline
	// RowGEMM produces the reduced/sharded tensor; ColGEMM consumes the
	// re-gathered one.
	RowGEMM OpSpec
	LN      OpSpec
	ColGEMM OpSpec
}

// SubLayers builds the paper's L1-L4 sub-layer pipelines for a model.
func SubLayers(m config.Model) []SubLayer {
	tokens := m.Tokens()
	ln := func(cols int) OpSpec {
		return OpSpec{Name: "ln", Kind: OpLN, Rows: tokens, Cols: cols}
	}
	outProj := OpSpec{Name: "out-proj", Kind: OpRowGEMM, M: tokens, N: m.Hidden, K: m.Hidden}
	ffn1 := OpSpec{Name: "ffn1", Kind: OpColGEMM, M: tokens, N: m.FFNHidden, K: m.Hidden}
	ffn2 := OpSpec{Name: "ffn2", Kind: OpRowGEMM, M: tokens, N: m.Hidden, K: m.FFNHidden}
	inProj := OpSpec{Name: "in-proj", Kind: OpColGEMM, M: tokens, N: 3 * m.Hidden, K: m.Hidden}
	ffn1Row := OpSpec{Name: "ffn1-bwd", Kind: OpRowGEMM, M: tokens, N: m.Hidden, K: m.FFNHidden, BackwardScale: 2}
	outProjCol := OpSpec{Name: "out-proj-bwd", Kind: OpColGEMM, M: tokens, N: m.Hidden, K: m.Hidden, BackwardScale: 2}
	inProjRow := OpSpec{Name: "in-proj-bwd", Kind: OpRowGEMM, M: tokens, N: m.Hidden, K: 3 * m.Hidden, BackwardScale: 2}
	ffn2Col := OpSpec{Name: "ffn2-bwd", Kind: OpColGEMM, M: tokens, N: m.FFNHidden, K: m.Hidden, BackwardScale: 2}
	return []SubLayer{
		{ID: "L1", Desc: "Output projection -> LayerNorm -> First FFN layer (forward)",
			RowGEMM: outProj, LN: ln(m.Hidden), ColGEMM: ffn1},
		{ID: "L2", Desc: "Second FFN layer -> LayerNorm -> Input projection (forward)",
			RowGEMM: ffn2, LN: ln(m.Hidden), ColGEMM: inProj},
		{ID: "L3", Desc: "First FFN layer -> LayerNorm -> Output projection (backward)",
			RowGEMM: ffn1Row, LN: ln(m.Hidden), ColGEMM: outProjCol},
		{ID: "L4", Desc: "Input projection -> LayerNorm -> Second FFN layer (backward)",
			RowGEMM: inProjRow, LN: ln(m.Hidden), ColGEMM: ffn2Col},
	}
}

// MTiles is the number of row blocks for a row count.
func MTiles(rows int) int { return (rows + TileM - 1) / TileM }

// NTiles is the number of column blocks for a column count.
func NTiles(cols int) int { return (cols + TileN - 1) / TileN }
