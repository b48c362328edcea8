// Package ir defines the register-machine intermediate representation that
// every Encore analysis, transformation, and simulator operates on.
//
// The IR models the level at which the original Encore prototype worked
// inside LLVM: functions of basic blocks holding three-address instructions
// over an unbounded set of virtual registers, with explicit load/store
// instructions against a word-addressed flat memory. Values are 64-bit
// words; floating point values travel through the same words via their
// IEEE-754 bit patterns (see FloatBits/BitsFloat).
//
// A Module owns globals and functions. Each Function owns basic Blocks;
// each Block holds a straight-line slice of Instrs and exactly one
// Terminator. Control-flow edges (Preds/Succs) are derived from
// terminators by Function.Recompute, which builders call automatically.
package ir

import (
	"fmt"
	"math"
)

// Reg names a virtual register within a single function. Registers are
// function-local; register 0..NumParams-1 hold the incoming arguments.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// Opcode enumerates IR instruction operations.
type Opcode uint8

// Instruction opcodes. Arithmetic is 64-bit two's complement; the F*
// variants reinterpret operand words as IEEE-754 float64. Comparison
// results are 0 or 1.
const (
	OpInvalid Opcode = iota

	// Data movement.
	OpConst // Dst = Imm
	OpMov   // Dst = A

	// Integer arithmetic and logic.
	OpAdd  // Dst = A + B
	OpSub  // Dst = A - B
	OpMul  // Dst = A * B
	OpDiv  // Dst = A / B (0 if B == 0)
	OpRem  // Dst = A % B (0 if B == 0)
	OpAnd  // Dst = A & B
	OpOr   // Dst = A | B
	OpXor  // Dst = A ^ B
	OpShl  // Dst = A << (B & 63)
	OpShr  // Dst = A >> (B & 63), arithmetic
	OpNeg  // Dst = -A
	OpNot  // Dst = ^A
	OpAddI // Dst = A + Imm
	OpMulI // Dst = A * Imm
	OpAndI // Dst = A & Imm
	OpShlI // Dst = A << (Imm & 63)
	OpShrI // Dst = A >> (Imm & 63), arithmetic

	// Floating point (words hold float64 bits).
	OpFAdd // Dst = A +. B
	OpFSub // Dst = A -. B
	OpFMul // Dst = A *. B
	OpFDiv // Dst = A /. B
	OpFNeg // Dst = -.A
	OpIToF // Dst = float(A)
	OpFToI // Dst = trunc(A)

	// Comparisons (signed; result 0/1).
	OpEq  // Dst = A == B
	OpNe  // Dst = A != B
	OpLt  // Dst = A < B
	OpLe  // Dst = A <= B
	OpFEq // Dst = A ==. B
	OpFLt // Dst = A <. B
	OpFLe // Dst = A <=. B

	// Memory. Addresses are word indices into the flat address space.
	OpLoad  // Dst = M[A + Imm]
	OpStore // M[A + Imm] = B

	// Address formation.
	OpFrame  // Dst = frame pointer + Imm (address of a frame slot)
	OpGlobal // Dst = address of Module.Globals[Imm]

	// Calls.
	OpCall   // Dst = Callee(Args...)
	OpExtern // Dst = extern Name(Args...) — statically opaque to analysis

	// Encore instrumentation pseudo-ops (inserted by internal/xform).
	OpSetRecovery // publish recovery block for region Imm; cost 1 instr
	OpCkptReg     // checkpoint register A into region Imm's buffer
	OpCkptMem     // checkpoint word at M[A + Imm2] (addr+data) for region Imm
	OpRestore     // recovery block body: restore region Imm's checkpoints
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConst:   "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpAddI: "addi", OpMulI: "muli", OpAndI: "andi", OpShlI: "shli", OpShrI: "shri",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpIToF: "itof", OpFToI: "ftoi",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le",
	OpFEq: "feq", OpFLt: "flt", OpFLe: "fle",
	OpLoad: "load", OpStore: "store",
	OpFrame: "frame", OpGlobal: "global",
	OpCall: "call", OpExtern: "extern",
	OpSetRecovery: "setrecovery", OpCkptReg: "ckptreg", OpCkptMem: "ckptmem",
	OpRestore: "restore",
}

// String returns the assembler mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsBinary reports whether the opcode takes two register operands A and B.
func (op Opcode) IsBinary() bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv,
		OpEq, OpNe, OpLt, OpLe, OpFEq, OpFLt, OpFLe:
		return true
	}
	return false
}

// FoldBinary evaluates an integer binary opcode on constant operands
// with the semantics the engines give it: wrapping 64-bit arithmetic,
// 0 for a division or remainder by zero, shift counts taken mod 64, and
// comparisons yielding 0 or 1. It reports false for the floating-point
// forms and every opcode that is not binary.
func FoldBinary(op Opcode, x, y int64) (int64, bool) {
	switch op {
	case OpAdd:
		return x + y, true
	case OpSub:
		return x - y, true
	case OpMul:
		return x * y, true
	case OpDiv:
		if y == 0 {
			return 0, true
		}
		return x / y, true
	case OpRem:
		if y == 0 {
			return 0, true
		}
		return x % y, true
	case OpAnd:
		return x & y, true
	case OpOr:
		return x | y, true
	case OpXor:
		return x ^ y, true
	case OpShl:
		return x << (uint64(y) & 63), true
	case OpShr:
		return x >> (uint64(y) & 63), true
	case OpEq:
		return b2i(x == y), true
	case OpNe:
		return b2i(x != y), true
	case OpLt:
		return b2i(x < y), true
	case OpLe:
		return b2i(x <= y), true
	}
	return 0, false
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// IsUnary reports whether the opcode takes a single register operand A.
func (op Opcode) IsUnary() bool {
	switch op {
	case OpMov, OpNeg, OpNot, OpFNeg, OpIToF, OpFToI,
		OpAddI, OpMulI, OpAndI, OpShlI, OpShrI:
		return true
	}
	return false
}

// HasDst reports whether the opcode writes a destination register.
func (op Opcode) HasDst() bool {
	switch op {
	case OpStore, OpSetRecovery, OpCkptReg, OpCkptMem, OpRestore:
		return false
	case OpInvalid:
		return false
	}
	return true
}

// IsCkpt reports whether the opcode is Encore instrumentation.
func (op Opcode) IsCkpt() bool {
	switch op {
	case OpSetRecovery, OpCkptReg, OpCkptMem, OpRestore:
		return true
	}
	return false
}

// Instr is a single three-address instruction.
//
// Operand usage by opcode family:
//
//	OpConst:        Dst = Imm
//	unary ops:      Dst = op A (immediate forms also read Imm)
//	binary ops:     Dst = A op B
//	OpLoad:         Dst = M[A+Imm]
//	OpStore:        M[A+Imm] = B
//	OpFrame:        Dst = FP + Imm
//	OpGlobal:       Dst = &Globals[Imm]
//	OpCall/Extern:  Dst = callee(Args...)
//	OpCkptMem:      checkpoint M[A+Imm2] into buffer of region Imm
type Instr struct {
	Op   Opcode
	Dst  Reg
	A, B Reg
	Imm  int64
	Imm2 int64 // secondary immediate (OpCkptMem address offset)

	Callee *Func  // OpCall target
	Extern string // OpExtern symbol name
	Args   []Reg  // OpCall / OpExtern arguments
}

// Uses appends the registers read by the instruction to buf and returns it.
func (in *Instr) Uses(buf []Reg) []Reg {
	switch {
	case in.Op == OpConst, in.Op == OpFrame, in.Op == OpGlobal,
		in.Op == OpSetRecovery, in.Op == OpRestore:
	case in.Op == OpStore:
		buf = append(buf, in.A, in.B)
	case in.Op == OpLoad, in.Op.IsUnary(), in.Op == OpCkptReg:
		buf = append(buf, in.A)
	case in.Op == OpCkptMem:
		buf = append(buf, in.A)
	case in.Op.IsBinary():
		buf = append(buf, in.A, in.B)
	case in.Op == OpCall, in.Op == OpExtern:
		buf = append(buf, in.Args...)
	}
	return buf
}

// Def returns the register written by the instruction, or NoReg.
func (in *Instr) Def() Reg {
	if in.Op.HasDst() {
		return in.Dst
	}
	return NoReg
}

// TermOp enumerates block terminator kinds.
type TermOp uint8

// Terminator kinds.
const (
	TermInvalid TermOp = iota
	TermJmp            // unconditional branch to Targets[0]
	TermBr             // if Cond != 0 goto Targets[0] else Targets[1]
	TermRet            // return Val (if HasVal)
	TermSwitch         // indexed jump: Targets[clamp(Cond)]
)

// Terminator ends a basic block.
type Terminator struct {
	Op      TermOp
	Cond    Reg // TermBr condition / TermSwitch index
	Val     Reg // TermRet value
	HasVal  bool
	Targets []*Block
}

// Block is a basic block: straight-line instructions plus one terminator.
type Block struct {
	ID     int // dense index within the parent function
	Name   string
	Fn     *Func
	Instrs []Instr
	Term   Terminator

	// Derived by Func.Recompute.
	Preds, Succs []*Block
}

// String returns "name#id" for diagnostics.
func (b *Block) String() string { return fmt.Sprintf("%s#%d", b.Name, b.ID) }

// NumInstrs returns the instruction count including the terminator.
func (b *Block) NumInstrs() int { return len(b.Instrs) + 1 }

// Func is a single function: an entry block, a register file size, and a
// frame of FrameSize words for stack-allocated data.
type Func struct {
	Name      string
	Mod       *Module
	NumParams int
	NumRegs   int // virtual register count; params occupy [0,NumParams)
	FrameSize int64
	Blocks    []*Block // Blocks[0] is the entry block
	Opaque    bool     // treated as unanalyzable by alias/idempotence passes

	// Tolerant marks a function whose outputs tolerate degraded quality
	// (the Relax-style application-level correctness annotation, paper
	// §6.2): faults detected inside its regions may be ignored instead of
	// rolled back.
	Tolerant bool
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// NewBlock appends a new empty block with the given name.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{ID: len(f.Blocks), Name: name, Fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Frame reserves n words of frame storage and returns the first slot's
// frame offset.
func (f *Func) Frame(n int64) int64 {
	off := f.FrameSize
	f.FrameSize += n
	return off
}

// Recompute rebuilds Preds/Succs and reassigns dense block IDs. Call after
// structurally editing the CFG.
func (f *Func) Recompute() {
	for i, b := range f.Blocks {
		b.ID = i
		b.Preds = b.Preds[:0]
		b.Succs = b.Succs[:0]
	}
	for _, b := range f.Blocks {
		for _, t := range b.Term.Targets {
			b.Succs = append(b.Succs, t)
			t.Preds = append(t.Preds, b)
		}
	}
}

// NumInstrs returns the static instruction count of the function,
// terminators included.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += b.NumInstrs()
	}
	return n
}

// Global is a module-level array of Size words, optionally initialized.
// Layout assigns each global its base Addr in the flat address space.
type Global struct {
	Name string
	Size int64
	Init []int64 // len <= Size; remainder zero-filled
	Addr int64   // assigned by Module.Layout
}

// Module is a compilation unit: globals plus functions. The function named
// "main" is the program entry point for the interpreter.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func

	laidOut bool
	dataEnd int64
}

// NewModule returns an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// NewFunc appends a function with the given name and parameter count.
func (m *Module) NewFunc(name string, numParams int) *Func {
	f := &Func{Name: name, Mod: m, NumParams: numParams, NumRegs: numParams}
	m.Funcs = append(m.Funcs, f)
	return f
}

// NewGlobal appends a global array of size words.
func (m *Module) NewGlobal(name string, size int64) *Global {
	g := &Global{Name: name, Size: size}
	m.Globals = append(m.Globals, g)
	m.laidOut = false
	return g
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Memory-image limits. The interpreter's default image holds
// DefaultMemWords words, the top DefaultStackWords of them reserved for
// call frames, and Verify rejects a module whose data segment would not
// fit below that stack area (MaxDataWords). MaxRegs caps one function's
// register file, so a call stack at the interpreter's default depth
// limit of 1 024 frames holds at most 8 MB of registers.
const (
	DefaultMemWords   = 1 << 20
	DefaultStackWords = 1 << 16
	MaxDataWords      = DefaultMemWords - DefaultStackWords
	MaxRegs           = 1024
)

// dataBase is the first global's address: low addresses are reserved so
// that address 0 acts as a trap cell.
const dataBase = 16

// Layout assigns each global a base address, starting at dataBase, and
// records the end of the data segment. Idempotent.
func (m *Module) Layout() {
	if m.laidOut {
		return
	}
	addr := int64(dataBase)
	for _, g := range m.Globals {
		g.Addr = addr
		addr += g.Size
	}
	m.dataEnd = addr
	m.laidOut = true
}

// DataEnd returns the first address past the global data segment.
func (m *Module) DataEnd() int64 {
	m.Layout()
	return m.dataEnd
}

// FloatBits converts a float64 into its word representation.
func FloatBits(f float64) int64 { return int64(math.Float64bits(f)) }

// BitsFloat converts a word back into a float64.
func BitsFloat(w int64) float64 { return math.Float64frombits(uint64(w)) }
