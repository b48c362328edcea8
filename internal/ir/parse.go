package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a module from the textual form produced by Module.String,
// enabling file-based tooling and print/parse round-trips. The grammar is
// exactly the printer's output:
//
//	module <name>
//	global <name>[<size>]
//	func <name>(params=<n> regs=<n> frame=<n>):
//	<block>#<id>:
//	  <instruction>
//	  <terminator>
//
// Global initializers are not part of the textual form (they are data,
// not code); callers attach them separately.
func Parse(src string) (*Module, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	return p.module()
}

type parser struct {
	lines []string
	pos   int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: parse line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

func (p *parser) peek() (string, bool) {
	for i := p.pos; i < len(p.lines); i++ {
		if strings.TrimSpace(p.lines[i]) != "" {
			p.pos = i
			return p.lines[i], true
		}
	}
	p.pos = len(p.lines)
	return "", false
}

func (p *parser) next() (string, bool) {
	l, ok := p.peek()
	if ok {
		p.pos++
	}
	return l, ok
}

func (p *parser) module() (*Module, error) {
	line, ok := p.next()
	if !ok || !strings.HasPrefix(line, "module ") {
		return nil, p.errf("expected 'module <name>'")
	}
	m := NewModule(strings.TrimSpace(strings.TrimPrefix(line, "module ")))

	// Globals.
	for {
		line, ok := p.peek()
		if !ok || !strings.HasPrefix(line, "global ") {
			break
		}
		p.pos++
		rest := strings.TrimSpace(strings.TrimPrefix(line, "global "))
		open := strings.IndexByte(rest, '[')
		close := strings.IndexByte(rest, ']')
		if open < 0 || close < open {
			return nil, p.errf("malformed global %q", rest)
		}
		size, err := strconv.ParseInt(rest[open+1:close], 10, 64)
		if err != nil {
			return nil, p.errf("global size: %v", err)
		}
		m.NewGlobal(rest[:open], size)
	}

	// First pass: function headers (so calls can forward-reference).
	type fnBody struct {
		f     *Func
		start int // line index of the first block header
		end   int
	}
	var bodies []fnBody
	for {
		line, ok := p.peek()
		if !ok {
			break
		}
		if !strings.HasPrefix(line, "func ") {
			return nil, p.errf("expected 'func', got %q", line)
		}
		p.pos++
		f, err := parseFuncHeader(m, line)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		start := p.pos
		for {
			l, ok := p.peek()
			if !ok || strings.HasPrefix(l, "func ") {
				break
			}
			p.pos++
		}
		bodies = append(bodies, fnBody{f: f, start: start, end: p.pos})
	}

	// Second pass: bodies.
	for _, fb := range bodies {
		sub := &parser{lines: p.lines[:fb.end], pos: fb.start}
		if err := sub.funcBody(m, fb.f); err != nil {
			return nil, err
		}
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("ir: parsed module invalid: %w", err)
	}
	return m, nil
}

func parseFuncHeader(m *Module, line string) (*Func, error) {
	// func name(params=N regs=N frame=N):
	rest := strings.TrimPrefix(line, "func ")
	open := strings.IndexByte(rest, '(')
	if open < 0 || !strings.HasSuffix(strings.TrimSpace(rest), "):") {
		return nil, fmt.Errorf("malformed func header %q", line)
	}
	name := rest[:open]
	inner := strings.TrimSuffix(strings.TrimSpace(rest[open+1:]), "):")
	params, regs, frame := -1, -1, int64(-1)
	for _, field := range strings.Fields(inner) {
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed func attribute %q", field)
		}
		n, err := strconv.ParseInt(kv[1], 10, 64)
		if err != nil {
			return nil, err
		}
		switch kv[0] {
		case "params":
			params = int(n)
		case "regs":
			regs = int(n)
		case "frame":
			frame = n
		}
	}
	if params < 0 || regs < 0 || frame < 0 {
		return nil, fmt.Errorf("func header missing attributes: %q", line)
	}
	f := m.NewFunc(name, params)
	f.NumRegs = regs
	f.FrameSize = frame
	return f, nil
}

// funcBody parses block headers and instructions until the line window is
// exhausted.
func (p *parser) funcBody(m *Module, f *Func) error {
	// Pass 1: create blocks from headers ("name#id:").
	save := p.pos
	for {
		line, ok := p.next()
		if !ok {
			break
		}
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(line, " ") && strings.HasSuffix(t, ":") {
			name := strings.TrimSuffix(t, ":")
			if i := strings.LastIndexByte(name, '#'); i >= 0 {
				name = name[:i]
			}
			f.NewBlock(name)
		}
	}
	p.pos = save

	var cur *Block
	idx := 0
	for {
		line, ok := p.next()
		if !ok {
			break
		}
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(line, " ") && strings.HasSuffix(t, ":") {
			if idx >= len(f.Blocks) {
				return p.errf("too many block headers")
			}
			cur = f.Blocks[idx]
			idx++
			continue
		}
		if cur == nil {
			return p.errf("instruction before any block header: %q", t)
		}
		if err := p.instrOrTerm(m, f, cur, t); err != nil {
			return err
		}
	}
	f.Recompute()
	return nil
}

func (p *parser) instrOrTerm(m *Module, f *Func, b *Block, t string) error {
	blockRef := func(s string) (*Block, error) {
		i := strings.LastIndexByte(s, '#')
		if i < 0 {
			return nil, p.errf("block reference %q missing #id", s)
		}
		id, err := strconv.Atoi(s[i+1:])
		if err != nil || id < 0 || id >= len(f.Blocks) {
			return nil, p.errf("bad block id in %q", s)
		}
		return f.Blocks[id], nil
	}
	reg := func(s string) (Reg, error) {
		if !strings.HasPrefix(s, "r") {
			return NoReg, p.errf("expected register, got %q", s)
		}
		n, err := strconv.Atoi(s[1:])
		if err != nil {
			return NoReg, p.errf("bad register %q", s)
		}
		return Reg(n), nil
	}
	num := func(s string) (int64, error) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, p.errf("bad number %q", s)
		}
		return n, nil
	}
	// mem parses "[rA+off]".
	mem := func(s string) (Reg, int64, error) {
		s = strings.TrimSuffix(strings.TrimPrefix(s, "["), "]")
		i := strings.IndexAny(s, "+-")
		if i < 0 {
			r, err := reg(s)
			return r, 0, err
		}
		r, err := reg(s[:i])
		if err != nil {
			return NoReg, 0, err
		}
		offStr := strings.TrimPrefix(s[i:], "+") // "+-2" → "-2"
		off, err := num(offStr)
		return r, off, err
	}

	fields := strings.Fields(strings.ReplaceAll(t, ",", " "))
	if len(fields) == 0 {
		return nil
	}
	// arg returns field i, or "" past the end of the line. Every operand
	// parser rejects "", so a line with too few operands is a parse error.
	arg := func(i int) string {
		if i < len(fields) {
			return fields[i]
		}
		return ""
	}

	// Terminators.
	switch fields[0] {
	case "jmp":
		tb, err := blockRef(arg(1))
		if err != nil {
			return err
		}
		b.Term = Terminator{Op: TermJmp, Cond: NoReg, Val: NoReg, Targets: []*Block{tb}}
		return nil
	case "br":
		c, err := reg(arg(1))
		if err != nil {
			return err
		}
		t1, err := blockRef(arg(2))
		if err != nil {
			return err
		}
		t2, err := blockRef(arg(3))
		if err != nil {
			return err
		}
		b.Term = Terminator{Op: TermBr, Cond: c, Val: NoReg, Targets: []*Block{t1, t2}}
		return nil
	case "switch":
		c, err := reg(arg(1))
		if err != nil {
			return err
		}
		var targets []*Block
		for _, s := range fields[2:] {
			s = strings.Trim(s, "[]")
			if s == "" {
				continue
			}
			tb, err := blockRef(s)
			if err != nil {
				return err
			}
			targets = append(targets, tb)
		}
		b.Term = Terminator{Op: TermSwitch, Cond: c, Val: NoReg, Targets: targets}
		return nil
	case "ret":
		if len(fields) == 1 {
			b.Term = Terminator{Op: TermRet, Cond: NoReg, Val: NoReg}
			return nil
		}
		v, err := reg(arg(1))
		if err != nil {
			return err
		}
		b.Term = Terminator{Op: TermRet, Cond: NoReg, Val: v, HasVal: true}
		return nil
	case "store":
		// store [rA+off] = rB
		a, off, err := mem(arg(1))
		if err != nil {
			return err
		}
		v, err := reg(arg(3))
		if err != nil {
			return err
		}
		b.Store(a, off, v)
		return nil
	case "setrecovery", "ckptreg", "ckptmem", "restore":
		return p.ckptInstr(b, fields[0], arg, mem, reg, num)
	}

	// Value-producing instructions: "rD = <op> ...", operands from field 3.
	if len(fields) < 3 || fields[1] != "=" {
		return p.errf("unrecognized instruction %q", t)
	}
	d, err := reg(fields[0])
	if err != nil {
		return err
	}
	op := fields[2]
	args := fields[3:]
	switch op {
	case "const":
		v, err := num(arg(3))
		if err != nil {
			return err
		}
		b.Const(d, v)
	case "load":
		a, off, err := mem(arg(3))
		if err != nil {
			return err
		}
		b.Load(d, a, off)
	case "frame":
		v, err := num(arg(3))
		if err != nil {
			return err
		}
		b.FrameAddr(d, v)
	case "global":
		gi, err := num(strings.TrimPrefix(arg(3), "#"))
		if err != nil {
			return err
		}
		if gi < 0 || gi >= int64(len(m.Globals)) {
			return p.errf("global index %d out of range", gi)
		}
		b.GlobalAddr(d, m.Globals[gi])
	case "call", "extern":
		nameArgs := strings.SplitN(strings.Join(args, " "), "(", 2)
		if len(nameArgs) != 2 {
			return p.errf("malformed call %q", t)
		}
		var rs []Reg
		inner := strings.TrimSuffix(nameArgs[1], ")")
		for _, s := range strings.Fields(strings.ReplaceAll(inner, ",", " ")) {
			r, err := reg(s)
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
		if op == "extern" {
			b.Instrs = append(b.Instrs, Instr{Op: OpExtern, Dst: d, A: NoReg, B: NoReg, Extern: nameArgs[0], Args: rs})
		} else {
			callee := m.FuncByName(nameArgs[0])
			if callee == nil {
				return p.errf("call to unknown function %q", nameArgs[0])
			}
			b.Instrs = append(b.Instrs, Instr{Op: OpCall, Dst: d, A: NoReg, B: NoReg, Callee: callee, Args: rs})
		}
	default:
		// Unary/binary/immediate mnemonics.
		var code Opcode
		for c := OpConst; c <= OpRestore; c++ {
			if c.String() == op {
				code = c
				break
			}
		}
		if code == OpInvalid {
			return p.errf("unknown opcode %q", op)
		}
		switch {
		case code.IsBinary():
			a, err := reg(arg(3))
			if err != nil {
				return err
			}
			c2, err := reg(arg(4))
			if err != nil {
				return err
			}
			b.Bin(code, d, a, c2)
		case code == OpAddI, code == OpMulI, code == OpAndI, code == OpShlI, code == OpShrI:
			a, err := reg(arg(3))
			if err != nil {
				return err
			}
			v, err := num(arg(4))
			if err != nil {
				return err
			}
			b.ImmOp(code, d, a, v)
		case code.IsUnary():
			a, err := reg(arg(3))
			if err != nil {
				return err
			}
			b.Un(code, d, a)
		default:
			return p.errf("opcode %q not usable here", op)
		}
	}
	return nil
}

// ckptInstr parses the instrumentation pseudo-ops.
func (p *parser) ckptInstr(b *Block, op string, arg func(int) string,
	mem func(string) (Reg, int64, error),
	reg func(string) (Reg, error),
	num func(string) (int64, error)) error {
	rid := func(s string) (int64, error) {
		return num(strings.TrimPrefix(s, "region="))
	}
	switch op {
	case "setrecovery":
		id, err := rid(arg(1))
		if err != nil {
			return err
		}
		b.SetRecovery(int(id))
	case "restore":
		id, err := rid(arg(1))
		if err != nil {
			return err
		}
		b.Restore(int(id))
	case "ckptreg":
		r, err := reg(arg(1))
		if err != nil {
			return err
		}
		id, err := rid(arg(2))
		if err != nil {
			return err
		}
		b.CkptReg(r, int(id))
	case "ckptmem":
		a, off, err := mem(arg(1))
		if err != nil {
			return err
		}
		id, err := rid(arg(2))
		if err != nil {
			return err
		}
		b.CkptMem(a, off, int(id))
	}
	return nil
}
