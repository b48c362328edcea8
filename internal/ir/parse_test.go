package ir

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	m, _ := twoBlockFunc(t)
	text := m.String()
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if got := m2.String(); got != text {
		t.Errorf("round trip diverged:\n--- printed ---\n%s\n--- reparsed ---\n%s", text, got)
	}
}

func TestParseCallsAndControlFlow(t *testing.T) {
	src := `module demo
global buf[16]
func helper(params=2 regs=3 frame=0):
entry#0:
  r2 = add r0, r1
  ret r2
func main(params=0 regs=6 frame=4):
entry#0:
  r0 = const 3
  r1 = const 4
  r2 = call helper(r0, r1)
  r3 = global #0
  store [r3+2] = r2
  r4 = frame 1
  store [r4+0] = r2
  br r2, body#1, exit#2
body#1:
  r5 = load [r3+2]
  jmp exit#2
exit#2:
  ret r2
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) != 2 || m.FuncByName("helper") == nil {
		t.Fatal("functions missing")
	}
	// Round trip again.
	m2, err := Parse(m.String())
	if err != nil {
		t.Fatalf("second parse: %v", err)
	}
	if m2.String() != m.String() {
		t.Error("second round trip diverged")
	}
}

func TestParseCheckpointOps(t *testing.T) {
	src := `module ck
global g[4]
func main(params=0 regs=2 frame=0):
header#0:
  setrecovery region=3
  r0 = global #0
  r1 = const 9
  ckptreg r1 region=3
  ckptmem [r0+1] region=3
  store [r0+1] = r1
  jmp done#1
done#1:
  ret
func rec(params=0 regs=0 frame=0):
entry#0:
  restore region=3
  ret
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if m2, err := Parse(m.String()); err != nil || m2.String() != m.String() {
		t.Fatalf("checkpoint round trip failed: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                      // no module line
		"module x\nfunc broken", // malformed header
		"module x\nglobal g[",   // malformed global
		"module x\nfunc f(params=0 regs=1 frame=0):\nentry#0:\n  r0 = frob r0\n  ret",        // unknown opcode
		"module x\nfunc f(params=0 regs=1 frame=0):\nentry#0:\n  r0 = call nope()\n  ret r0", // unknown callee
		"module x\nfunc f(params=0 regs=0 frame=0):\nentry#0:\n  jmp other#7",                // bad block id
	}
	// Every mnemonic with too few operands: a parse error, never an index
	// panic.
	for _, l := range []string{
		"jmp", "br r0", "br r0 entry#0", "switch", "store [r0+0]", "store [r0+0] =",
		"setrecovery", "restore", "ckptreg r0", "ckptmem [r0+0]",
		"r0 = const", "r0 = load", "r0 = frame", "r0 = global",
		"r0 = add r0", "r0 = addi r0", "r0 = neg",
	} {
		cases = append(cases, "module x\nglobal g[4]\nfunc f(params=0 regs=1 frame=0):\nentry#0:\n  "+l+"\n  ret\n")
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseNegativeOffsets(t *testing.T) {
	src := `module neg
global g[8]
func main(params=0 regs=2 frame=0):
entry#0:
  r0 = global #0
  r0 = addi r0, 4
  r1 = load [r0+-2]
  store [r0+-1] = r1
  ret r1
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := m.Funcs[0].Blocks[0].Instrs[2]
	if in.Op != OpLoad || in.Imm != -2 {
		t.Errorf("negative offset parsed as %+v", in)
	}
}

// TestVerifyImageLimits checks the size limits Verify enforces so that a
// verified module fits the interpreter's default memory image.
func TestVerifyImageLimits(t *testing.T) {
	fn := func(params, regs int) string {
		return fmt.Sprintf("func main(params=%d regs=%d frame=0):\nentry#0:\n  ret\n", params, regs)
	}
	fits := int64(MaxDataWords - dataBase)
	cases := []struct {
		src string
		ok  bool
	}{
		{fmt.Sprintf("module x\nglobal g[%d]\n", fits) + fn(0, 1), true},
		{fmt.Sprintf("module x\nglobal g[%d]\n", fits+1) + fn(0, 1), false},
		{fmt.Sprintf("module x\nglobal g[%d]\nglobal h[%d]\n", fits, 1) + fn(0, 1), false},
		{"module x\nglobal g[-4]\n" + fn(0, 1), false},
		{"module x\nglobal g[4611686018427387904]\nglobal h[4611686018427387904]\n" + fn(0, 1), false},
		{"module x\n" + fn(0, MaxRegs), true},
		{"module x\n" + fn(0, MaxRegs+1), false},
		{"module x\n" + fn(3, 3), true},
		{"module x\n" + fn(7, 3), false},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if (err == nil) != c.ok {
			t.Errorf("%q: err = %v, want ok=%v", strings.SplitN(c.src, "\n", 3)[1], err, c.ok)
		}
	}
}
