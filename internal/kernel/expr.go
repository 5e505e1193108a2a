package kernel

import "fmt"

// Expr is a symbolic integer expression over kernel launch parameters,
// used to describe memory-access index expressions. The CAIS compiler's
// static index analysis (Fig. 8a) walks these expressions to decide
// whether an access is GPU-invariant: if the expression does not reference
// the GPU ID, thread blocks with equal blockIdx on different GPUs access
// the same location and are mergeable.
type Expr interface {
	// Eval computes the expression under the given bindings.
	Eval(env Env) int64
	// fmt.Stringer for diagnostics.
	String() string
	// walk visits the expression tree.
	walk(fn func(Expr))
}

// Env binds the kernel launch parameters.
type Env struct {
	GPU      int64 // gpuID
	BlockIdx int64 // blockIdx (linearized)
}

// Param names a launch parameter.
type Param string

// The two parameters the index analysis distinguishes.
const (
	ParamGPU   Param = "gpuID"
	ParamBlock Param = "blockIdx"
)

// Eval implements Expr.
func (p Param) Eval(env Env) int64 {
	switch p {
	case ParamGPU:
		return env.GPU
	case ParamBlock:
		return env.BlockIdx
	}
	panic(fmt.Sprintf("kernel: unknown param %q", string(p)))
}

func (p Param) String() string     { return string(p) }
func (p Param) walk(fn func(Expr)) { fn(p) }

// Const is an integer literal.
type Const int64

// Eval implements Expr.
func (c Const) Eval(Env) int64     { return int64(c) }
func (c Const) String() string     { return fmt.Sprintf("%d", int64(c)) }
func (c Const) walk(fn func(Expr)) { fn(c) }

// BinOp is the operator of a binary expression.
type BinOp byte

// Supported operators.
const (
	OpAdd BinOp = '+'
	OpMul BinOp = '*'
	OpDiv BinOp = '/'
	OpMod BinOp = '%'
)

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Eval implements Expr.
func (b Bin) Eval(env Env) int64 {
	l, r := b.L.Eval(env), b.R.Eval(env)
	switch b.Op {
	case OpAdd:
		return l + r
	case OpMul:
		return l * r
	case OpDiv:
		if r == 0 {
			panic("kernel: division by zero in address expression")
		}
		return l / r
	case OpMod:
		if r == 0 {
			panic("kernel: modulo by zero in address expression")
		}
		return l % r
	}
	panic(fmt.Sprintf("kernel: unknown binop %q", string(b.Op)))
}

func (b Bin) String() string { return fmt.Sprintf("(%s %c %s)", b.L, b.Op, b.R) }
func (b Bin) walk(fn func(Expr)) {
	fn(b)
	b.L.walk(fn)
	b.R.walk(fn)
}

// Add builds l + r.
func Add(l, r Expr) Expr { return Bin{Op: OpAdd, L: l, R: r} }

// Mul builds l * r.
func Mul(l, r Expr) Expr { return Bin{Op: OpMul, L: l, R: r} }

// Div builds l / r.
func Div(l, r Expr) Expr { return Bin{Op: OpDiv, L: l, R: r} }

// Mod builds l % r.
func Mod(l, r Expr) Expr { return Bin{Op: OpMod, L: l, R: r} }

// UsesParam reports whether e references the given parameter anywhere.
func UsesParam(e Expr, p Param) bool {
	found := false
	e.walk(func(sub Expr) {
		if q, ok := sub.(Param); ok && q == p {
			found = true
		}
	})
	return found
}

// Pattern is one symbolic access pattern of a kernel body: the compiler
// analyzes Addr for GPU-invariance and, when mergeable, rewrites the
// instruction to its CAIS variant and forms TB groups.
type Pattern struct {
	Sem  Semantic // memory-semantic requirement
	Addr Expr     // address index expression
}

// AddrAt evaluates the pattern's address for a (gpu, blockIdx) instance.
func (p Pattern) AddrAt(gpu, block int) uint64 {
	return uint64(p.Addr.Eval(Env{GPU: int64(gpu), BlockIdx: int64(block)}))
}
