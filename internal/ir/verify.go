package ir

import "fmt"

// Verify checks structural well-formedness of the module: global sizes
// are non-negative and the data segment fits MaxDataWords, every function
// has at most MaxRegs registers and room for its parameters, every block
// is terminated, branch targets live in the same function, register
// operands are in range, call arities match, and the CFG edge lists are
// consistent with the terminators. It returns the first problem found.
func (m *Module) Verify() error {
	end := int64(dataBase)
	for _, g := range m.Globals {
		if g.Size < 0 {
			return fmt.Errorf("global %s: negative size %d", g.Name, g.Size)
		}
		if g.Size > MaxDataWords-end {
			return fmt.Errorf("global %s: data segment exceeds %d words", g.Name, MaxDataWords)
		}
		end += g.Size
	}
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}

// Verify checks a single function; see Module.Verify.
func (f *Func) Verify() error {
	if f.NumRegs > MaxRegs {
		return fmt.Errorf("%d registers exceed the limit of %d", f.NumRegs, MaxRegs)
	}
	if f.NumParams < 0 || f.NumParams > f.NumRegs {
		return fmt.Errorf("%d params do not fit %d registers", f.NumParams, f.NumRegs)
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	inFunc := make(map[*Block]bool, len(f.Blocks))
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("block %s has stale ID %d (want %d); call Recompute", b.Name, b.ID, i)
		}
		if b.Fn != f {
			return fmt.Errorf("block %s belongs to another function", b)
		}
		inFunc[b] = true
	}
	checkReg := func(b *Block, r Reg, what string) error {
		if r == NoReg {
			return fmt.Errorf("%s: missing %s register", b, what)
		}
		if r < 0 || int(r) >= f.NumRegs {
			return fmt.Errorf("%s: %s register r%d out of range [0,%d)", b, what, r, f.NumRegs)
		}
		return nil
	}
	var uses []Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == OpInvalid {
				return fmt.Errorf("%s: instruction %d is invalid", b, i)
			}
			if d := in.Def(); d != NoReg {
				if err := checkReg(b, d, "destination"); err != nil {
					return err
				}
			}
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				if err := checkReg(b, u, "source"); err != nil {
					return err
				}
			}
			if in.Op == OpCall {
				if in.Callee == nil {
					return fmt.Errorf("%s: call with nil callee", b)
				}
				if len(in.Args) != in.Callee.NumParams {
					return fmt.Errorf("%s: call %s arity %d, want %d",
						b, in.Callee.Name, len(in.Args), in.Callee.NumParams)
				}
			}
			if in.Op == OpExtern && in.Extern == "" {
				return fmt.Errorf("%s: extern call without a name", b)
			}
			if in.Op == OpGlobal && (in.Imm < 0 || in.Imm >= int64(len(f.Mod.Globals))) {
				return fmt.Errorf("%s: global index %d out of range", b, in.Imm)
			}
		}
		switch b.Term.Op {
		case TermInvalid:
			return fmt.Errorf("%s: unterminated block", b)
		case TermJmp:
			if len(b.Term.Targets) != 1 {
				return fmt.Errorf("%s: jmp needs 1 target", b)
			}
		case TermBr:
			if len(b.Term.Targets) != 2 {
				return fmt.Errorf("%s: br needs 2 targets", b)
			}
			if err := checkReg(b, b.Term.Cond, "branch condition"); err != nil {
				return err
			}
		case TermSwitch:
			if len(b.Term.Targets) == 0 {
				return fmt.Errorf("%s: switch needs targets", b)
			}
			if err := checkReg(b, b.Term.Cond, "switch index"); err != nil {
				return err
			}
		case TermRet:
			if b.Term.HasVal {
				if err := checkReg(b, b.Term.Val, "return value"); err != nil {
					return err
				}
			}
		}
		for _, t := range b.Term.Targets {
			if !inFunc[t] {
				return fmt.Errorf("%s: branch target %s outside function", b, t)
			}
		}
		// Edge lists must mirror the terminator.
		if len(b.Succs) != len(b.Term.Targets) {
			return fmt.Errorf("%s: stale successor list; call Recompute", b)
		}
		for i, s := range b.Succs {
			if s != b.Term.Targets[i] {
				return fmt.Errorf("%s: successor %d mismatch; call Recompute", b, i)
			}
		}
	}
	// Predecessor lists must account for exactly the incoming edges.
	predCount := make(map[*Block]int)
	for _, b := range f.Blocks {
		for _, t := range b.Term.Targets {
			predCount[t]++
		}
	}
	for _, b := range f.Blocks {
		if len(b.Preds) != predCount[b] {
			return fmt.Errorf("%s: stale predecessor list; call Recompute", b)
		}
	}
	return nil
}
