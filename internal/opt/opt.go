// Package opt provides the scalar optimization passes that stand in for
// the paper's "-O3" compilation baseline: block-local constant folding
// and propagation, copy propagation, dead-code elimination, and
// unreachable-block removal. Encore's numbers are only meaningful over
// optimized code — unoptimized IR is full of dead recomputation that
// would inflate region sizes and dilute checkpoint costs.
//
// All passes preserve program output exactly (validated against every
// benchmark in the test suite); like any production optimizer they may
// drop side-effect-free instructions, including dead loads.
package opt

import (
	"encore/internal/cfg"
	"encore/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	Folded          int // instructions simplified to constants/moves
	CopiesForwarded int // operand uses rewritten to copy sources
	DeadRemoved     int // side-effect-free dead instructions removed
	BlocksRemoved   int // unreachable blocks dropped
}

// Optimize runs the pass pipeline over every function of mod until a
// fixpoint (bounded), returning aggregate statistics.
func Optimize(mod *ir.Module) Stats {
	var total Stats
	for _, f := range mod.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		for round := 0; round < 4; round++ {
			s := Stats{}
			s.Folded += foldConstants(f)
			s.CopiesForwarded += propagateCopies(f)
			s.DeadRemoved += eliminateDead(f)
			s.BlocksRemoved += removeUnreachable(f)
			total.Folded += s.Folded
			total.CopiesForwarded += s.CopiesForwarded
			total.DeadRemoved += s.DeadRemoved
			total.BlocksRemoved += s.BlocksRemoved
			if s == (Stats{}) {
				break
			}
		}
	}
	return total
}

// foldConstants performs block-local constant propagation and folding:
// within a block, operands known to be constant are folded through
// arithmetic, and foldable instructions become OpConst.
func foldConstants(f *ir.Func) int {
	changed := 0
	consts := map[ir.Reg]int64{}
	for _, b := range f.Blocks {
		clear(consts)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch {
			case in.Op == ir.OpConst:
				consts[in.Dst] = in.Imm
				continue
			case in.Op == ir.OpMov:
				if v, ok := consts[in.A]; ok {
					*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: ir.NoReg, B: ir.NoReg, Imm: v}
					consts[in.Dst] = v
					changed++
					continue
				}
			case in.Op.IsBinary():
				av, aok := consts[in.A]
				bv, bok := consts[in.B]
				if aok && bok {
					if v, ok := ir.FoldBinary(in.Op, av, bv); ok {
						*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: ir.NoReg, B: ir.NoReg, Imm: v}
						consts[in.Dst] = v
						changed++
						continue
					}
				}
				// Algebraic identities: x+0, x*1, x|0, x^0, x<<0.
				if bok {
					if rep, ok := identity(in.Op, in.A, bv); ok {
						rep.Dst = in.Dst
						*in = rep
						changed++
					}
				}
			case in.Op == ir.OpAddI && in.Imm == 0,
				in.Op == ir.OpMulI && in.Imm == 1,
				in.Op == ir.OpShlI && in.Imm == 0,
				in.Op == ir.OpShrI && in.Imm == 0:
				*in = ir.Instr{Op: ir.OpMov, Dst: in.Dst, A: in.A, B: ir.NoReg}
				changed++
			case in.Op == ir.OpAddI || in.Op == ir.OpMulI || in.Op == ir.OpAndI ||
				in.Op == ir.OpShlI || in.Op == ir.OpShrI:
				if v, ok := consts[in.A]; ok {
					if folded, ok2 := evalImm(in.Op, v, in.Imm); ok2 {
						*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: ir.NoReg, B: ir.NoReg, Imm: folded}
						consts[in.Dst] = folded
						changed++
						continue
					}
				}
			}
			if d := in.Def(); d != ir.NoReg {
				delete(consts, d)
			}
		}
	}
	return changed
}

func evalImm(op ir.Opcode, x, imm int64) (int64, bool) {
	switch op {
	case ir.OpAddI:
		return x + imm, true
	case ir.OpMulI:
		return x * imm, true
	case ir.OpAndI:
		return x & imm, true
	case ir.OpShlI:
		return x << (uint64(imm) & 63), true
	case ir.OpShrI:
		return x >> (uint64(imm) & 63), true
	}
	return 0, false
}

// identity rewrites x op const with an algebraic identity into a Mov.
func identity(op ir.Opcode, a ir.Reg, c int64) (ir.Instr, bool) {
	mov := ir.Instr{Op: ir.OpMov, A: a, B: ir.NoReg}
	switch {
	case op == ir.OpAdd && c == 0,
		op == ir.OpSub && c == 0,
		op == ir.OpMul && c == 1,
		op == ir.OpOr && c == 0,
		op == ir.OpXor && c == 0,
		op == ir.OpShl && c == 0,
		op == ir.OpShr && c == 0:
		return mov, true
	}
	return ir.Instr{}, false
}

// propagateCopies rewrites, block-locally, uses of Mov destinations to the
// original source while the copy relation holds.
func propagateCopies(f *ir.Func) int {
	changed := 0
	copyOf := map[ir.Reg]ir.Reg{}
	for _, b := range f.Blocks {
		clear(copyOf)
		subst := func(r *ir.Reg) {
			if src, ok := copyOf[*r]; ok {
				*r = src
				changed++
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Rewrite uses first.
			switch {
			case in.Op == ir.OpStore:
				subst(&in.A)
				subst(&in.B)
			case in.Op == ir.OpLoad, in.Op.IsUnary(), in.Op == ir.OpCkptReg, in.Op == ir.OpCkptMem:
				subst(&in.A)
			case in.Op.IsBinary():
				subst(&in.A)
				subst(&in.B)
			case in.Op == ir.OpCall, in.Op == ir.OpExtern:
				for j := range in.Args {
					subst(&in.Args[j])
				}
			}
			// Update the copy relation.
			if d := in.Def(); d != ir.NoReg {
				// Any relation through d dies.
				delete(copyOf, d)
				for k, v := range copyOf {
					if v == d {
						delete(copyOf, k)
					}
				}
				if in.Op == ir.OpMov && in.A != d {
					copyOf[d] = in.A
				}
			}
		}
		if c := b.Term.Cond; c != ir.NoReg {
			if src, ok := copyOf[c]; ok {
				b.Term.Cond = src
				changed++
			}
		}
		if b.Term.HasVal {
			if src, ok := copyOf[b.Term.Val]; ok {
				b.Term.Val = src
				changed++
			}
		}
	}
	return changed
}

// eliminateDead removes side-effect-free instructions whose destination is
// dead, using whole-function liveness.
func eliminateDead(f *ir.Func) int {
	lv := cfg.ComputeLiveness(f)
	removed := 0
	for _, b := range f.Blocks {
		// Walk backwards with a running live set seeded by live-out.
		live := map[ir.Reg]bool{}
		for r := range lv.Out[b] {
			live[r] = true
		}
		if c := b.Term.Cond; c != ir.NoReg {
			live[c] = true
		}
		if b.Term.HasVal {
			live[b.Term.Val] = true
		}
		var buf []ir.Reg
		kept := b.Instrs[:0:0]
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			d := in.Def()
			if d != ir.NoReg && !live[d] && pure(in.Op) {
				removed++
				continue
			}
			if d != ir.NoReg {
				delete(live, d)
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				live[u] = true
			}
			kept = append(kept, in)
		}
		// Reverse back into program order.
		for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
			kept[i], kept[j] = kept[j], kept[i]
		}
		b.Instrs = kept
	}
	return removed
}

// pure reports whether removing the instruction (given a dead destination)
// cannot change observable behavior. Calls and externs may have side
// effects; loads are treated as removable, as production optimizers do.
func pure(op ir.Opcode) bool {
	switch op {
	case ir.OpCall, ir.OpExtern, ir.OpStore,
		ir.OpSetRecovery, ir.OpCkptReg, ir.OpCkptMem, ir.OpRestore:
		return false
	}
	return true
}

// removeUnreachable drops blocks not reachable from the entry.
func removeUnreachable(f *ir.Func) int {
	reach := map[*ir.Block]bool{}
	for _, b := range cfg.PostOrder(f) {
		reach[b] = true
	}
	if len(reach) == len(f.Blocks) {
		return 0
	}
	kept := f.Blocks[:0:0]
	removed := 0
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	f.Blocks = kept
	f.Recompute()
	return removed
}
