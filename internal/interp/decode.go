package interp

import (
	"sync"

	"encore/internal/ir"
)

// This file lowers IR modules into the pre-decoded form the default
// engine compiles into closures (closure.go). Decoding happens once per
// module (at machine construction or first run) and turns the
// pointer-rich ir.Instr/ir.Block graph into a flat instruction array
// with:
//
//   - dense int32 register operands (no ir.Reg conversions at run time),
//   - absolute jump targets (block terminators become stream opcodes, so
//     every position is one pc with no instrs/terminator split),
//   - globals resolved to absolute addresses at decode time (OpGlobal
//     becomes a constant load),
//   - per-block dense IDs across the whole module, so profiling counters
//     are plain []int64 indexing instead of map[*ir.Block]int64 updates.
//
// A Program is an immutable snapshot of the module: it must be re-decoded
// if the module is structurally edited (instrumentation, optimization).
// Decoding never mutates the module, so any number of machines — including
// concurrent ones — may share one Program via UseProgram.

// Decoded terminator opcodes, placed directly after the ir.Opcode space
// so one byte-sized opcode covers instructions and terminators alike.
const (
	dJmp uint8 = uint8(ir.OpRestore) + 1 + iota
	dBr
	dSwitch
	dRet
)

// dinstr is one pre-decoded instruction.
//
// Field usage mirrors ir.Instr for plain opcodes (op < dJmp). Terminators
// repurpose the fields:
//
//	dJmp:    aux = target pc, dst = dense block ID, b = edge-counter base
//	dBr:     a = cond, aux = then pc, imm = else pc, dst/b as above
//	dSwitch: a = cond, aux = switch-table index, dst/b as above
//	dRet:    a = value register (-1 for void), dst = dense block ID
//
// OpCall/OpExtern store a call-site table index in aux; OpCkptMem carries
// its address offset (ir.Instr.Imm2) in imm; OpGlobal is rewritten to
// OpConst with the global's absolute address as imm.
type dinstr struct {
	op        uint8
	dst, a, b int32
	aux       int32
	imm       int64
}

// dcall is one decoded call site.
type dcall struct {
	fn    *ir.Func
	entry int32
	args  []int32
	dst   int32
}

// dext is one decoded extern call site. The handler is resolved against
// the builtins at decode time; fn is nil for an unknown name, whose site
// compiles to an ErrExtern trap.
type dext struct {
	name string
	fn   externFunc
	args []int32
	dst  int32
}

// Program is a pre-decoded module, shareable across machines.
type Program struct {
	mod      *ir.Module
	code     []dinstr
	entry    map[*ir.Func]int32
	blocks   []*ir.Block // dense block ID -> block
	edgeBase []int32     // dense block ID -> base index into edge counters
	numEdges int
	calls    []dcall
	externs  []dext
	switches [][]int32

	// pc -> (dense block ID, instruction index): the reference loop's
	// position for a pc, where it enters a run or a handoff and where a
	// return resumes. idxOf == len(b.Instrs) denotes the terminator slot.
	blockOf []int32
	idxOf   []int32
	// block -> pc of its first instruction, from which the reference
	// loop takes a call's return pc and the pc it hands back at, so its
	// frames keep the default engine's pc-form return points. The pc of
	// position (b, idx) is blockPC[b] + idx; idx == len(b.Instrs)
	// addresses the terminator slot.
	blockPC map[*ir.Block]int32

	// Closure-compiled forms (closure.go), built lazily on first use by
	// the default engine and shared by every machine using this Program:
	// index 0 is the plain variant, index 1 the profiled one.
	closOnce [2]sync.Once
	clos     [2]*cprog
}

// refPos maps a pre-decoded pc to the (block, instruction index) position
// the reference loop uses.
func (p *Program) refPos(pc int32) (*ir.Block, int) {
	return p.blocks[p.blockOf[pc]], int(p.idxOf[pc])
}

// Predecode lowers mod into its flat executable form. The result is a
// read-only snapshot: re-decode after structurally editing the module.
func Predecode(mod *ir.Module) *Program {
	mod.Layout()
	p := &Program{mod: mod, entry: map[*ir.Func]int32{}}

	// Pass 1: dense block IDs, per-block edge bases, and block PCs.
	blockPC := map[*ir.Block]int32{}
	dense := map[*ir.Block]int32{}
	pc := int32(0)
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			dense[b] = int32(len(p.blocks))
			p.blocks = append(p.blocks, b)
			p.edgeBase = append(p.edgeBase, int32(p.numEdges))
			p.numEdges += len(b.Term.Targets)
			blockPC[b] = pc
			pc += int32(len(b.Instrs)) + 1
		}
	}
	p.blockPC = blockPC
	p.code = make([]dinstr, 0, pc)
	p.blockOf = make([]int32, pc)
	p.idxOf = make([]int32, pc)
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			base := blockPC[b]
			for i := 0; i <= len(b.Instrs); i++ {
				p.blockOf[base+int32(i)] = dense[b]
				p.idxOf[base+int32(i)] = int32(i)
			}
		}
	}

	// Pass 2: emit instructions and terminators.
	for _, f := range mod.Funcs {
		if len(f.Blocks) > 0 {
			p.entry[f] = blockPC[f.Entry()]
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				d := dinstr{op: uint8(in.Op), dst: int32(in.Dst), a: int32(in.A), b: int32(in.B), imm: in.Imm}
				switch in.Op {
				case ir.OpGlobal:
					d.op = uint8(ir.OpConst)
					d.imm = mod.Globals[in.Imm].Addr
				case ir.OpCkptMem:
					d.imm = in.Imm2
				case ir.OpCall:
					d.aux = int32(len(p.calls))
					entry := int32(-1)
					if in.Callee != nil && len(in.Callee.Blocks) > 0 {
						entry = blockPC[in.Callee.Entry()]
					}
					p.calls = append(p.calls, dcall{
						fn: in.Callee, entry: entry,
						args: regList(in.Args), dst: int32(in.Dst),
					})
				case ir.OpExtern:
					d.aux = int32(len(p.externs))
					p.externs = append(p.externs, dext{
						name: in.Extern, fn: builtinExterns[in.Extern],
						args: regList(in.Args), dst: int32(in.Dst),
					})
				}
				p.code = append(p.code, d)
			}
			t := &b.Term
			d := dinstr{dst: dense[b], b: p.edgeBase[dense[b]]}
			switch t.Op {
			case ir.TermJmp:
				d.op = dJmp
				d.aux = blockPC[t.Targets[0]]
			case ir.TermBr:
				d.op = dBr
				d.a = int32(t.Cond)
				d.aux = blockPC[t.Targets[0]]
				d.imm = int64(blockPC[t.Targets[1]])
			case ir.TermSwitch:
				d.op = dSwitch
				d.a = int32(t.Cond)
				d.aux = int32(len(p.switches))
				tbl := make([]int32, len(t.Targets))
				for i, tgt := range t.Targets {
					tbl[i] = blockPC[tgt]
				}
				p.switches = append(p.switches, tbl)
			case ir.TermRet:
				d.op = dRet
				d.a = -1
				if t.HasVal {
					d.a = int32(t.Val)
				}
			default:
				d.op = uint8(ir.OpInvalid)
			}
			p.code = append(p.code, d)
		}
	}
	return p
}

func regList(rs []ir.Reg) []int32 {
	if len(rs) == 0 {
		return nil
	}
	out := make([]int32, len(rs))
	for i, r := range rs {
		out[i] = int32(r)
	}
	return out
}

// UseProgram installs a shared pre-decoded program, so pooled machines
// skip per-machine decoding. p must have been decoded from m.Mod.
func (m *Machine) UseProgram(p *Program) {
	if p != nil && p.mod != m.Mod {
		panic("interp: UseProgram: program decoded from a different module")
	}
	m.prog = p
}

// program returns the machine's decoded program, decoding lazily on first
// use.
func (m *Machine) program() *Program {
	if m.prog == nil {
		m.prog = Predecode(m.Mod)
	}
	return m.prog
}

// mergeDense folds the default engine's dense profiling counters into the
// map-based Profile the rest of the system consumes, then clears them so
// repeated Calls accumulate correctly.
func (m *Machine) mergeDense(p *Program) {
	if m.Prof == nil {
		return
	}
	for i, c := range m.pBlocks {
		if c == 0 {
			continue
		}
		m.Prof.Block[p.blocks[i]] += c
		m.pBlocks[i] = 0
	}
	for i, b := range p.blocks {
		n := len(b.Term.Targets)
		if n == 0 {
			continue
		}
		eb := int(p.edgeBase[i])
		var sum int64
		for j := 0; j < n; j++ {
			sum += m.pEdges[eb+j]
		}
		if sum == 0 {
			continue
		}
		e := m.Prof.Edge[b]
		if e == nil {
			e = make([]int64, n)
			m.Prof.Edge[b] = e
		}
		for j := 0; j < n; j++ {
			e[j] += m.pEdges[eb+j]
			m.pEdges[eb+j] = 0
		}
	}
}
