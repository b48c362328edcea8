package ir

// This file provides the fluent construction API used by the workload
// kernels and tests. All methods append to the receiver block; terminator
// methods may be called once per block.

func (b *Block) add(in Instr) *Block {
	b.Instrs = append(b.Instrs, in)
	return b
}

// Const sets dst to an integer constant.
func (b *Block) Const(dst Reg, v int64) *Block {
	return b.add(Instr{Op: OpConst, Dst: dst, A: NoReg, B: NoReg, Imm: v})
}

// ConstF sets dst to a floating-point constant (stored as float bits).
func (b *Block) ConstF(dst Reg, v float64) *Block {
	return b.Const(dst, FloatBits(v))
}

// Mov copies src into dst.
func (b *Block) Mov(dst, src Reg) *Block {
	return b.add(Instr{Op: OpMov, Dst: dst, A: src, B: NoReg})
}

// Bin appends a two-operand arithmetic/compare instruction.
func (b *Block) Bin(op Opcode, dst, a, c Reg) *Block {
	return b.add(Instr{Op: op, Dst: dst, A: a, B: c})
}

// Un appends a one-operand instruction.
func (b *Block) Un(op Opcode, dst, a Reg) *Block {
	return b.add(Instr{Op: op, Dst: dst, A: a, B: NoReg})
}

// ImmOp appends a register-immediate instruction (OpAddI and friends).
func (b *Block) ImmOp(op Opcode, dst, a Reg, imm int64) *Block {
	return b.add(Instr{Op: op, Dst: dst, A: a, B: NoReg, Imm: imm})
}

// Add appends dst = a + c.
func (b *Block) Add(dst, a, c Reg) *Block { return b.Bin(OpAdd, dst, a, c) }

// Sub appends dst = a - c.
func (b *Block) Sub(dst, a, c Reg) *Block { return b.Bin(OpSub, dst, a, c) }

// Mul appends dst = a * c.
func (b *Block) Mul(dst, a, c Reg) *Block { return b.Bin(OpMul, dst, a, c) }

// AddI appends dst = a + imm.
func (b *Block) AddI(dst, a Reg, imm int64) *Block { return b.ImmOp(OpAddI, dst, a, imm) }

// MulI appends dst = a * imm.
func (b *Block) MulI(dst, a Reg, imm int64) *Block { return b.ImmOp(OpMulI, dst, a, imm) }

// AndI appends dst = a & imm.
func (b *Block) AndI(dst, a Reg, imm int64) *Block { return b.ImmOp(OpAndI, dst, a, imm) }

// ShlI appends dst = a << imm.
func (b *Block) ShlI(dst, a Reg, imm int64) *Block { return b.ImmOp(OpShlI, dst, a, imm) }

// ShrI appends dst = a >> imm (arithmetic).
func (b *Block) ShrI(dst, a Reg, imm int64) *Block { return b.ImmOp(OpShrI, dst, a, imm) }

// Load appends dst = M[addr+off].
func (b *Block) Load(dst, addr Reg, off int64) *Block {
	return b.add(Instr{Op: OpLoad, Dst: dst, A: addr, B: NoReg, Imm: off})
}

// Store appends M[addr+off] = val.
func (b *Block) Store(addr Reg, off int64, val Reg) *Block {
	return b.add(Instr{Op: OpStore, Dst: NoReg, A: addr, B: val, Imm: off})
}

// FrameAddr appends dst = FP + off.
func (b *Block) FrameAddr(dst Reg, off int64) *Block {
	return b.add(Instr{Op: OpFrame, Dst: dst, A: NoReg, B: NoReg, Imm: off})
}

// GlobalAddr appends dst = &g.
func (b *Block) GlobalAddr(dst Reg, g *Global) *Block {
	idx := int64(-1)
	for i, gg := range b.Fn.Mod.Globals {
		if gg == g {
			idx = int64(i)
			break
		}
	}
	if idx < 0 {
		panic("ir: GlobalAddr of global from another module")
	}
	return b.add(Instr{Op: OpGlobal, Dst: dst, A: NoReg, B: NoReg, Imm: idx})
}

// Call appends dst = callee(args...).
func (b *Block) Call(dst Reg, callee *Func, args ...Reg) *Block {
	if len(args) != callee.NumParams {
		panic("ir: call arity mismatch for " + callee.Name)
	}
	return b.add(Instr{Op: OpCall, Dst: dst, A: NoReg, B: NoReg, Callee: callee, Args: args})
}

// CallExtern appends dst = name(args...) where name is resolved by the
// interpreter's extern registry and is opaque to static analysis.
func (b *Block) CallExtern(dst Reg, name string, args ...Reg) *Block {
	return b.add(Instr{Op: OpExtern, Dst: dst, A: NoReg, B: NoReg, Extern: name, Args: args})
}

// SetRecovery appends the recovery-address update for the given region.
func (b *Block) SetRecovery(regionID int) *Block {
	return b.add(Instr{Op: OpSetRecovery, Dst: NoReg, A: NoReg, B: NoReg, Imm: int64(regionID)})
}

// CkptReg appends a register checkpoint into the region's buffer.
func (b *Block) CkptReg(r Reg, regionID int) *Block {
	return b.add(Instr{Op: OpCkptReg, Dst: NoReg, A: r, B: NoReg, Imm: int64(regionID)})
}

// CkptMem appends a memory checkpoint of M[addr+off] into the region's
// buffer.
func (b *Block) CkptMem(addr Reg, off int64, regionID int) *Block {
	return b.add(Instr{Op: OpCkptMem, Dst: NoReg, A: addr, B: NoReg, Imm: int64(regionID), Imm2: off})
}

// Restore appends the recovery-block restore of a region's checkpoints.
func (b *Block) Restore(regionID int) *Block {
	return b.add(Instr{Op: OpRestore, Dst: NoReg, A: NoReg, B: NoReg, Imm: int64(regionID)})
}

// Jmp terminates the block with an unconditional branch.
func (b *Block) Jmp(t *Block) {
	b.setTerm(Terminator{Op: TermJmp, Cond: NoReg, Val: NoReg, Targets: []*Block{t}})
}

// Br terminates the block with a conditional branch: cond != 0 → then.
func (b *Block) Br(cond Reg, then, els *Block) {
	b.setTerm(Terminator{Op: TermBr, Cond: cond, Val: NoReg, Targets: []*Block{then, els}})
}

// Switch terminates the block with an indexed jump; the index register is
// clamped to the target range.
func (b *Block) Switch(idx Reg, targets ...*Block) {
	b.setTerm(Terminator{Op: TermSwitch, Cond: idx, Val: NoReg, Targets: targets})
}

// Ret terminates the block returning val.
func (b *Block) Ret(val Reg) {
	b.setTerm(Terminator{Op: TermRet, Cond: NoReg, Val: val, HasVal: val != NoReg})
}

// RetVoid terminates the block with a valueless return.
func (b *Block) RetVoid() { b.Ret(NoReg) }

func (b *Block) setTerm(t Terminator) {
	if b.Term.Op != TermInvalid {
		panic("ir: block " + b.String() + " already terminated")
	}
	b.Term = t
}
