package ir_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"encore/internal/interp"
	"encore/internal/ir"
)

// TestFoldBinaryMatchesReference: each opcode FoldBinary folds computes
// what the reference engine computes on the operands where Go's operators
// and the IR's semantics could part — division and remainder by zero,
// MinInt64 by −1, and shift counts 63, 64 and 65 — and the opcodes it
// declines are exactly the floating-point binary forms.
func TestFoldBinaryMatchesReference(t *testing.T) {
	var folded []ir.Opcode
	for op := ir.OpInvalid; op <= ir.OpRestore; op++ {
		_, ok := ir.FoldBinary(op, 1, 1)
		isFloat := op == ir.OpFAdd || op == ir.OpFSub || op == ir.OpFMul || op == ir.OpFDiv ||
			op == ir.OpFEq || op == ir.OpFLt || op == ir.OpFLe
		if want := op.IsBinary() && !isFloat; ok != want {
			t.Errorf("FoldBinary(%v) folds = %v, want %v", op, ok, want)
		}
		if ok {
			folded = append(folded, op)
		}
	}

	// One two-parameter function per folded opcode: f(a, b) = a op b.
	var src strings.Builder
	src.WriteString("module fold\n")
	for _, op := range folded {
		fmt.Fprintf(&src, "func %s(params=2 regs=3 frame=0):\nentry#0:\n  r2 = %s r0, r1\n  ret r2\n", op, op)
	}
	mod, err := ir.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(mod, interp.Config{Engine: interp.EngineRef})
	operands := [][2]int64{
		{7, 0}, {-7, 0}, {0, 0}, {math.MinInt64, 0},
		{math.MinInt64, -1}, {math.MaxInt64, -1}, {-7, 2}, {7, -2},
		{1, 63}, {-1, 63}, {1, 64}, {-8, 64}, {1, 65}, {math.MinInt64, 65},
	}
	for i, op := range folded {
		fn := mod.Funcs[i]
		for _, xy := range operands {
			m.Reset()
			want, err := m.Call(fn, xy[0], xy[1])
			if err != nil {
				t.Fatalf("%v(%d, %d) on the reference engine: %v", op, xy[0], xy[1], err)
			}
			if got, _ := ir.FoldBinary(op, xy[0], xy[1]); got != want {
				t.Errorf("FoldBinary(%v, %d, %d) = %d, reference engine %d", op, xy[0], xy[1], got, want)
			}
		}
	}
}
