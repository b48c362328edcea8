package alias

import (
	"encore/internal/ir"
)

// InstrPos addresses one instruction inside a function.
type InstrPos struct {
	Block *ir.Block
	Index int
}

// FuncInfo carries the per-instruction results of the value-tracking pass:
// the abstract location of every load/store and the abstract locations of
// every call argument (used to instantiate callee summaries).
type FuncInfo struct {
	Fn       *ir.Func
	Refs     map[InstrPos]Loc
	CallArgs map[InstrPos][]Loc

	entryStates map[*ir.Block][]aval // block-entry abstract states (internal)
}

// RefOf returns the abstract location accessed by the memory instruction
// at pos (Unknown if the pass could not resolve it).
func (fi *FuncInfo) RefOf(pos InstrPos) Loc {
	if l, ok := fi.Refs[pos]; ok {
		return l
	}
	return Unknown
}

// ---- abstract values -------------------------------------------------

type avKind uint8

const (
	avBot avKind = iota
	avConst
	avAddr
	avTop
)

type aval struct {
	kind avKind
	c    int64
	loc  Loc
}

var top = aval{kind: avTop}

func constVal(c int64) aval { return aval{kind: avConst, c: c} }
func addrVal(l Loc) aval    { return aval{kind: avAddr, loc: l} }

func join(a, b aval) aval {
	switch {
	case a.kind == avBot:
		return b
	case b.kind == avBot:
		return a
	case a.kind == avTop || b.kind == avTop:
		return top
	case a.kind == avConst && b.kind == avConst:
		if a.c == b.c {
			return a
		}
		return top
	case a.kind == avAddr && b.kind == avAddr:
		if !sameBase(a.loc, b.loc) || a.loc.Kind == KindAbs && a.loc.Off != b.loc.Off {
			return top
		}
		l := a.loc
		if !(a.loc.OffKnown && b.loc.OffKnown && a.loc.Off == b.loc.Off) {
			l.OffKnown = false
			l.Off = 0
		}
		return addrVal(l)
	default:
		return top
	}
}

func eq(a, b aval) bool { return a == b }

// shift displaces an address value by a known constant.
func shift(a aval, d int64) aval {
	switch a.kind {
	case avConst:
		return constVal(a.c + d)
	case avAddr:
		if a.loc.OffKnown {
			l := a.loc
			l.Off += d
			return addrVal(l)
		}
		return a
	}
	return top
}

// transfer applies one instruction to the register state.
func transfer(f *ir.Func, st []aval, in *ir.Instr) {
	get := func(r ir.Reg) aval {
		v := st[r]
		if v.kind == avBot {
			return top // uninitialized-on-this-path registers read as unknown
		}
		return v
	}
	switch in.Op {
	case ir.OpConst:
		st[in.Dst] = constVal(in.Imm)
	case ir.OpMov:
		st[in.Dst] = get(in.A)
	case ir.OpFrame:
		st[in.Dst] = addrVal(Loc{Kind: KindFrame, Fn: f, Off: in.Imm, OffKnown: true})
	case ir.OpGlobal:
		st[in.Dst] = addrVal(Loc{Kind: KindGlobal, Global: f.Mod.Globals[in.Imm], OffKnown: true})
	case ir.OpAdd:
		a, b := get(in.A), get(in.B)
		switch {
		case a.kind == avConst && b.kind == avConst:
			st[in.Dst] = constVal(a.c + b.c)
		case a.kind == avAddr && b.kind == avConst:
			st[in.Dst] = shift(a, b.c)
		case a.kind == avConst && b.kind == avAddr:
			st[in.Dst] = shift(b, a.c)
		case a.kind == avAddr && b.kind == avAddr:
			st[in.Dst] = top
		case a.kind == avAddr:
			l := a.loc
			l.OffKnown = false
			l.Off = 0
			st[in.Dst] = addrVal(l)
		case b.kind == avAddr:
			l := b.loc
			l.OffKnown = false
			l.Off = 0
			st[in.Dst] = addrVal(l)
		default:
			st[in.Dst] = top
		}
	case ir.OpSub:
		a, b := get(in.A), get(in.B)
		switch {
		case a.kind == avConst && b.kind == avConst:
			st[in.Dst] = constVal(a.c - b.c)
		case a.kind == avAddr && b.kind == avConst:
			st[in.Dst] = shift(a, -b.c)
		case a.kind == avAddr:
			l := a.loc
			l.OffKnown = false
			l.Off = 0
			st[in.Dst] = addrVal(l)
		default:
			st[in.Dst] = top
		}
	case ir.OpAddI:
		st[in.Dst] = shift(get(in.A), in.Imm)
	case ir.OpMulI:
		if a := get(in.A); a.kind == avConst {
			st[in.Dst] = constVal(a.c * in.Imm)
		} else {
			st[in.Dst] = top
		}
	case ir.OpAndI:
		if a := get(in.A); a.kind == avConst {
			st[in.Dst] = constVal(a.c & in.Imm)
		} else {
			st[in.Dst] = top
		}
	case ir.OpShlI:
		if a := get(in.A); a.kind == avConst {
			st[in.Dst] = constVal(a.c << (uint64(in.Imm) & 63))
		} else {
			st[in.Dst] = top
		}
	case ir.OpShrI:
		if a := get(in.A); a.kind == avConst {
			st[in.Dst] = constVal(a.c >> (uint64(in.Imm) & 63))
		} else {
			st[in.Dst] = top
		}
	case ir.OpNeg:
		if a := get(in.A); a.kind == avConst {
			st[in.Dst] = constVal(-a.c)
		} else {
			st[in.Dst] = top
		}
	case ir.OpNot:
		if a := get(in.A); a.kind == avConst {
			st[in.Dst] = constVal(^a.c)
		} else {
			st[in.Dst] = top
		}
	default:
		if in.Op.IsBinary() {
			a, b := get(in.A), get(in.B)
			if a.kind == avConst && b.kind == avConst {
				if v, ok := ir.FoldBinary(in.Op, a.c, b.c); ok {
					st[in.Dst] = constVal(v)
					return
				}
			}
		}
		if d := in.Def(); d != ir.NoReg {
			st[d] = top
		}
	}
}

// locAt resolves the memory location referenced through address register a
// plus displacement off, given the current state.
func locAt(st []aval, a ir.Reg, off int64) Loc {
	v := st[a]
	switch v.kind {
	case avAddr:
		l := v.loc
		if l.OffKnown {
			l.Off += off
		}
		return l
	case avConst:
		return Loc{Kind: KindAbs, Off: v.c + off, OffKnown: true}
	}
	return Unknown
}

func argLoc(st []aval, r ir.Reg) Loc {
	return locAt(st, r, 0)
}

// AnalyzeFunc runs the flow-sensitive value-tracking pass over f and
// resolves the abstract location of every memory reference and call
// argument. Parameters are modeled as opaque pointer bases (KindParam) so
// that callee summaries can be re-expressed at call sites.
func AnalyzeFunc(f *ir.Func) *FuncInfo {
	fi := &FuncInfo{Fn: f, Refs: map[InstrPos]Loc{}, CallArgs: map[InstrPos][]Loc{}}
	if len(f.Blocks) == 0 {
		return fi
	}
	n := f.NumRegs
	inState := make(map[*ir.Block][]aval)
	entryState := make([]aval, n)
	for p := 0; p < f.NumParams; p++ {
		entryState[p] = addrVal(Loc{Kind: KindParam, Param: p, OffKnown: true})
	}
	inState[f.Entry()] = entryState

	// Fixpoint over reverse post-order.
	rpo := reversePostOrder(f)
	outState := make(map[*ir.Block][]aval)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			in := inState[b]
			if in == nil {
				continue
			}
			st := append(make([]aval, 0, n), in...)
			for i := range b.Instrs {
				transfer(f, st, &b.Instrs[i])
			}
			prev, seen := outState[b]
			if seen && statesEq(prev, st) {
				continue
			}
			outState[b] = st
			changed = true
			for _, s := range b.Succs {
				si := inState[s]
				if si == nil {
					inState[s] = append([]aval(nil), st...)
					continue
				}
				merged := make([]aval, n)
				for i := range merged {
					merged[i] = join(si[i], st[i])
				}
				inState[s] = merged
			}
		}
	}

	fi.entryStates = inState

	// Final resolution pass.
	for _, b := range f.Blocks {
		in := inState[b]
		if in == nil {
			continue // unreachable
		}
		st := append([]aval(nil), in...)
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			pos := InstrPos{Block: b, Index: i}
			switch ins.Op {
			case ir.OpLoad, ir.OpStore:
				fi.Refs[pos] = locAt(st, ins.A, ins.Imm)
			case ir.OpCall, ir.OpExtern:
				locs := make([]Loc, len(ins.Args))
				for j, r := range ins.Args {
					locs[j] = argLoc(st, r)
				}
				fi.CallArgs[pos] = locs
			}
			transfer(f, st, ins)
		}
	}
	return fi
}

func statesEq(a, b []aval) bool {
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func reversePostOrder(f *ir.Func) []*ir.Block {
	seen := map[*ir.Block]bool{}
	var out []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		out = append(out, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
