package alias

import (
	"testing"
	"testing/quick"

	"encore/internal/ir"
)

func TestMayMustAliasTable(t *testing.T) {
	m := ir.NewModule("t")
	gA := m.NewGlobal("A", 16)
	gB := m.NewGlobal("B", 16)
	f := m.NewFunc("f", 0)
	f2 := m.NewFunc("g", 0)

	loc := func(kind BaseKind, g *ir.Global, fn *ir.Func, param int, off int64, known bool) Loc {
		return Loc{Kind: kind, Global: g, Fn: fn, Param: param, Off: off, OffKnown: known}
	}
	a0 := loc(KindGlobal, gA, nil, 0, 0, true)
	a4 := loc(KindGlobal, gA, nil, 0, 4, true)
	aU := loc(KindGlobal, gA, nil, 0, 0, false)
	b0 := loc(KindGlobal, gB, nil, 0, 0, true)
	fr0 := loc(KindFrame, nil, f, 0, 0, true)
	fr8 := loc(KindFrame, nil, f, 0, 8, true)
	fr2 := loc(KindFrame, nil, f2, 0, 0, true)
	p0 := loc(KindParam, nil, nil, 0, 0, true)
	p1 := loc(KindParam, nil, nil, 1, 0, true)
	abs5 := loc(KindAbs, nil, nil, 0, 5, true)

	cases := []struct {
		a, b       Loc
		may, must  bool
		optimistic bool // expected MayAlias under Optimistic
	}{
		{a0, a0, true, true, true},
		{a0, a4, false, false, false},
		{a0, aU, true, false, false},
		{aU, aU, true, false, false},
		{a0, b0, false, false, false},
		{a0, fr0, false, false, false},
		{fr0, fr8, false, false, false},
		{fr0, fr0, true, true, true},
		{fr0, fr2, false, false, false},
		{p0, a0, true, false, false},
		{p0, p1, true, false, false},
		{p0, p0, true, true, true},
		{Unknown, a0, true, false, false},
		{Unknown, Unknown, true, false, false},
		{abs5, abs5, true, true, true},
		{abs5, loc(KindAbs, nil, nil, 0, 6, true), false, false, false},
		{abs5, a0, true, false, false},
	}
	for _, c := range cases {
		if got := MayAlias(c.a, c.b, Static); got != c.may {
			t.Errorf("MayAlias(%v, %v) = %v, want %v", c.a, c.b, got, c.may)
		}
		if got := MayAlias(c.b, c.a, Static); got != c.may {
			t.Errorf("MayAlias not symmetric for (%v, %v)", c.a, c.b)
		}
		if got := MustAlias(c.a, c.b); got != c.must {
			t.Errorf("MustAlias(%v, %v) = %v, want %v", c.a, c.b, got, c.must)
		}
		if got := MayAlias(c.a, c.b, Optimistic); got != c.optimistic {
			t.Errorf("MayAlias[optimistic](%v, %v) = %v, want %v", c.a, c.b, got, c.optimistic)
		}
	}
}

// TestMustImpliesMay: the fundamental ordering of the two relations.
func TestMustImpliesMay(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("G", 64)
	f := func(k1, k2 uint8, o1, o2 int16, known1, known2 bool) bool {
		mk := func(k uint8, o int16, known bool) Loc {
			switch k % 3 {
			case 0:
				return Loc{Kind: KindGlobal, Global: g, Off: int64(o), OffKnown: known}
			case 1:
				return Loc{Kind: KindAbs, Off: int64(o), OffKnown: true}
			default:
				return Unknown
			}
		}
		a, b := mk(k1, o1, known1), mk(k2, o2, known2)
		if MustAlias(a, b) && !MayAlias(a, b, Static) {
			return false
		}
		// Optimistic may-alias must be a subset of static may-alias.
		if MayAlias(a, b, Optimistic) && !MayAlias(a, b, Static) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetOps(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("G", 64)
	l := func(off int64) Loc { return Loc{Kind: KindGlobal, Global: g, Off: off, OffKnown: true} }
	s := NewSet(l(0), l(1), l(2))
	if !s.MustCovers(l(1)) || s.MustCovers(l(9)) {
		t.Error("MustCovers wrong")
	}
	if !s.Equal(NewSet(l(2), l(1), l(0))) {
		t.Error("Equal is order-independent")
	}
}

// buildRefFunc exercises the value-tracking pass: global indexing,
// frame slots, constant folding, and a join that degrades offsets.
func TestAnalyzeFuncRefs(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("G", 64)
	f := m.NewFunc("main", 0)
	f.Frame(8)
	entry := f.NewBlock("entry")
	then := f.NewBlock("then")
	els := f.NewBlock("els")
	join := f.NewBlock("join")

	base, idx, addr, v, fa := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.GlobalAddr(base, g)
	entry.Const(idx, 3)
	entry.Add(addr, base, idx) // G+3, fully resolved
	entry.Load(v, addr, 2)     // ref G+5
	entry.FrameAddr(fa, 1)
	entry.Store(fa, 0, v) // ref frame+1
	entry.Br(v, then, els)

	d := f.NewReg()
	then.Const(d, 10)
	then.Jmp(join)
	els.Const(d, 20)
	els.Jmp(join)

	ptr := f.NewReg()
	join.Add(ptr, base, d) // G+{10,20} -> G+unknown
	join.Store(ptr, 0, v)
	join.RetVoid()
	f.Recompute()

	fi := AnalyzeFunc(f)
	ref := func(b *ir.Block, i int) Loc { return fi.RefOf(InstrPos{Block: b, Index: i}) }

	if got := ref(entry, 3); got.Kind != KindGlobal || got.Global != g || !got.OffKnown || got.Off != 5 {
		t.Errorf("load ref = %v, want G+5", got)
	}
	if got := ref(entry, 5); got.Kind != KindFrame || got.Off != 1 || !got.OffKnown {
		t.Errorf("frame store ref = %v, want frame+1", got)
	}
	if got := ref(join, 1); got.Kind != KindGlobal || got.OffKnown {
		t.Errorf("join store ref = %v, want G+unknown", got)
	}
}

func TestSummaries(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("G", 64)

	// callee(p): stores to G[1], to its own frame, and through p.
	callee := m.NewFunc("callee", 1)
	callee.Frame(4)
	cb := callee.NewBlock("entry")
	gb, one, fa := callee.NewReg(), callee.NewReg(), callee.NewReg()
	cb.GlobalAddr(gb, g)
	cb.Const(one, 1)
	cb.Store(gb, 1, one) // visible: G+1
	cb.FrameAddr(fa, 0)
	cb.Store(fa, 0, one)        // invisible: own frame
	cb.Store(ir.Reg(0), 2, one) // visible: param0+2
	cb.Ret(one)
	callee.Recompute()

	// main: calls callee(&G[8]).
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	gb2, arg, r := f.NewReg(), f.NewReg(), f.NewReg()
	b.GlobalAddr(gb2, g)
	b.AddI(arg, gb2, 8)
	b.Call(r, callee, arg)
	b.RetVoid()
	f.Recompute()

	mi := AnalyzeModule(m)
	sum := mi.Summaries[callee]
	if sum.Unknown {
		t.Fatal("callee must be summarizable")
	}
	if len(sum.Stores) != 2 {
		t.Fatalf("callee summary stores = %v, want G+1 and param0+2", sum.Stores)
	}
	fi := mi.Funcs[f]
	st, _, unk := Instantiate(sum, fi.CallArgs[InstrPos{Block: b, Index: 2}])
	if unk {
		t.Fatal("instantiation must stay bounded")
	}
	wantG1 := Loc{Kind: KindGlobal, Global: g, Off: 1, OffKnown: true}
	wantG10 := Loc{Kind: KindGlobal, Global: g, Off: 10, OffKnown: true}
	if _, ok := st[wantG1]; !ok {
		t.Errorf("instantiated stores missing G+1: %v", st)
	}
	if _, ok := st[wantG10]; !ok {
		t.Errorf("instantiated stores missing G+10 (param rebase): %v", st)
	}
}

func TestRecursionIsUnknown(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("rec", 1)
	b := f.NewBlock("entry")
	r := f.NewReg()
	b.Call(r, f, ir.Reg(0))
	b.Ret(r)
	f.Recompute()
	mi := AnalyzeModule(m)
	if !mi.Summaries[f].Unknown {
		t.Error("recursive function must have Unknown summary")
	}
}

func TestOpaqueAndExternUnknown(t *testing.T) {
	m := ir.NewModule("t")
	op := m.NewFunc("opaque", 0)
	op.Opaque = true
	ob := op.NewBlock("entry")
	ob.RetVoid()
	op.Recompute()

	f := m.NewFunc("withExtern", 0)
	b := f.NewBlock("entry")
	r := f.NewReg()
	b.CallExtern(r, "emit", r)
	b.RetVoid()
	f.Recompute()

	mi := AnalyzeModule(m)
	if !mi.Summaries[op].Unknown {
		t.Error("opaque function must be Unknown")
	}
	if !mi.Summaries[f].Unknown {
		t.Error("function calling an extern must be Unknown")
	}
}

func TestEscapingFrameAddressPoisonsSummary(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("G", 8)
	f := m.NewFunc("leak", 0)
	f.Frame(4)
	b := f.NewBlock("entry")
	fa, gb := f.NewReg(), f.NewReg()
	b.FrameAddr(fa, 0)
	b.GlobalAddr(gb, g)
	b.Store(gb, 0, fa) // frame address escapes to memory
	b.RetVoid()
	f.Recompute()
	mi := AnalyzeModule(m)
	if !mi.Summaries[f].Unknown {
		t.Error("escaping frame address must poison the summary")
	}
}
