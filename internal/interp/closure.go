package interp

import (
	"encore/internal/ir"
)

// This file implements the default execution engine (EngineFast), the
// quiescent tier next to the reference loop (ref.go). The pre-decoded
// instruction stream (decode.go) is AOT-compiled into threaded code: one
// Go closure per dinstr with its operands bound at compile time, chained
// by direct continuation calls within a basic block so the hot path is a
// straight run of closure calls — no opcode switch, no per-instruction
// counter updates, no per-instruction stop checks. Block and frame
// transfers go through a trampoline (cvm.next) so the Go stack never
// grows with the interpreted program's control flow.
//
// Instruction accounting is block-batched. A block's total cost is
// pre-added when execution (re-)enters it, so during the chain
//
//	cvm.count = exact count + cost of the block's unretired tail
//
// and steps that expose the counters mid-block — calls, SetRecovery's
// entryCount, traps — subtract the tail (a compile-time constant per pc)
// to recover the exact value. The same pre-add doubles as the stop
// check: a stop event (fault window, scheduled detection, budget
// exhaustion, checkpoint rung; see fastStop) falls inside a segment
// entered at count c with total cost C (terminator cost 1 included) iff
// c + C > stop. The re-entry steps test exactly that and delegate the
// segment to the reference loop, whose per-instruction checks meet the
// event at the precise instruction it is due — so fault windows,
// scheduled detections, budget traps, and snapshot captures are
// bit-identical across engines.
//
// Two compiled variants exist per Program — plain and profiled (the
// profiled one bumps the dense block/edge counters at terminator
// retire) — built lazily and shared by every machine using the Program,
// including concurrent SFI pool workers: compiled steps capture only
// immutable decode-time data (operand indices, region IDs, continuation
// pointers) and reach all mutable state through the per-run cvm.

// step is one compiled instruction. regs is threaded through the chain
// as an argument (rather than re-loaded from the cvm) so the register
// file's slice header stays in machine registers across a block.
type step func(v *cvm, regs []int64)

// cprog is a Program compiled to threaded-code closures.
type cprog struct {
	// steps[pc] runs the instruction at pc and tail-continues into its
	// block successor, assuming its cost was already pre-added.
	steps []step
	// resume[pc] is the re-entry point used by block transfers, call and
	// return edges, and loopClosureFrom: it performs the segment stop
	// check, pre-adds the cost of pc..terminator, then runs steps[pc].
	resume []step
}

// Closure-engine exit reasons (cvm.exit).
const (
	exitRun      uint8 = iota // still executing
	exitDone                  // returned past baseDepth; retVal is the result
	exitTrap                  // err holds the trap; counters already exact
	exitDelegate              // stop event pending: hand delegPC to the reference loop
	exitSymptom               // OOB access with an undetected injected fault at delegPC
)

// cvm is the closure engine's per-run mutable state. Compiled steps
// receive it as their first argument; everything reached through it
// belongs to exactly one machine.
type cvm struct {
	m   *Machine
	mem []int64

	// Shadow counters in block-batched form (see the file comment):
	// count/ovh run ahead of the exact values by the cost of the current
	// block's unretired tail.
	count, ovh int64
	stop       int64

	// Dirty-memory watermarks, mirroring the Machine's.
	dLo, dHi  int64
	sLo, sHi  int64
	stackBase int64

	regs []int64 // current frame's registers (mirror of the chain argument)
	fp   int64   // current frame's frame pointer, for OpFrame
	next step    // trampoline slot: block/frame transfers park the next step here

	// Dense profiling counters (aliases of Machine.pBlocks/pEdges),
	// bumped by the profiled variant's terminator steps.
	pBlocks, pEdges []int64

	baseDepth int
	exit      uint8
	delegPC   int32
	retVal    int64
	err       error
}

// stepCost returns one decoded instruction's (Count, overhead) cost,
// matching the reference loop's accounting: checkpoint pseudo-ops count
// toward Count but also toward the overhead delta (they are excluded
// from BaseCount), and OpCkptMem costs two instructions (addr+data).
func stepCost(op uint8) (count, ovh int64) {
	switch op {
	case uint8(ir.OpSetRecovery), uint8(ir.OpCkptReg), uint8(ir.OpRestore):
		return 1, 1
	case uint8(ir.OpCkptMem):
		return 2, 2
	default:
		return 1, 0
	}
}

// compileClosures builds the threaded-code form of p. profiled selects
// the variant whose terminator steps maintain the dense block/edge
// counters.
func compileClosures(p *Program, profiled bool) *cprog {
	n := len(p.code)
	cp := &cprog{steps: make([]step, n), resume: make([]step, n)}

	// resumeCost[pc] / resumeOvh[pc]: cost of pc through its block's
	// terminator, inclusive — the amount resume[pc] pre-adds.
	resumeCost := make([]int64, n)
	resumeOvh := make([]int64, n)
	for _, b := range p.blocks {
		base := p.blockPC[b]
		term := base + int32(len(b.Instrs))
		var rc, ro int64
		for pc := term; pc >= base; pc-- {
			c, o := stepCost(p.code[pc].op)
			rc += c
			ro += o
			resumeCost[pc], resumeOvh[pc] = rc, ro
		}
	}

	// Pass 1: re-entry steps. Built first so terminator and call steps
	// can capture their target's resume step directly; the inner
	// steps[pc] lookup happens at run time, after pass 2 fills it in.
	for pc := 0; pc < n; pc++ {
		pcv := int32(pc)
		rc, ro := resumeCost[pc], resumeOvh[pc]
		cp.resume[pc] = func(v *cvm, _ []int64) {
			if v.count+rc > v.stop {
				v.exit = exitDelegate
				v.delegPC = pcv
				return
			}
			v.count += rc
			v.ovh += ro
			cp.steps[pcv](v, v.regs)
		}
	}

	// Pass 2: instruction steps, compiled back-to-front within each
	// block so every step captures its in-block successor.
	for _, b := range p.blocks {
		base := p.blockPC[b]
		term := base + int32(len(b.Instrs))
		var next step
		for pc := term; pc >= base; pc-- {
			s := compileStep(p, cp, pc, next, resumeCost[pc], resumeOvh[pc], profiled)
			cp.steps[pc] = s
			next = s
		}
	}
	return cp
}

// oob finishes an out-of-bounds data access at pc: with an injected,
// undetected fault pending it becomes a symptom handoff (the reference
// loop fires the detector), otherwise a trap. adjC/adjO subtract the
// block tail beyond the access, which retires its count before the
// bounds check observes the state — exactly the reference loop's order.
func (v *cvm) oob(pc int32, adjC, adjO int64, what string, addr int64) {
	v.count -= adjC
	v.ovh -= adjO
	v.delegPC = pc
	m := v.m
	if m.fault != nil && m.fault.injected && !m.fault.detected {
		v.exit = exitSymptom
		return
	}
	v.exit = exitTrap
	v.err = m.trap(ErrOutOfBounds, "%s [%d] in %s", what, addr, m.frames[len(m.frames)-1].fn.Name)
}

// compileStep compiles the instruction at pc. next is its in-block
// successor (nil only for terminators, which never use it); rc/ro are
// resumeCost[pc]/resumeOvh[pc], from which the exact-counter
// adjustments are derived at compile time.
func compileStep(p *Program, cp *cprog, pc int32, next step, rc, ro int64, profiled bool) step {
	in := p.code[pc]
	switch in.op {
	case uint8(ir.OpConst):
		dst, imm := in.dst, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = imm; next(v, regs) }
	case uint8(ir.OpMov):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = regs[a]; next(v, regs) }
	case uint8(ir.OpAdd):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] + regs[b]; next(v, regs) }
	case uint8(ir.OpSub):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] - regs[b]; next(v, regs) }
	case uint8(ir.OpMul):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] * regs[b]; next(v, regs) }
	case uint8(ir.OpDiv):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			if d := regs[b]; d != 0 {
				regs[dst] = regs[a] / d
			} else {
				regs[dst] = 0
			}
			next(v, regs)
		}
	case uint8(ir.OpRem):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			if d := regs[b]; d != 0 {
				regs[dst] = regs[a] % d
			} else {
				regs[dst] = 0
			}
			next(v, regs)
		}
	case uint8(ir.OpAnd):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] & regs[b]; next(v, regs) }
	case uint8(ir.OpOr):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] | regs[b]; next(v, regs) }
	case uint8(ir.OpXor):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] ^ regs[b]; next(v, regs) }
	case uint8(ir.OpShl):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] << (uint64(regs[b]) & 63); next(v, regs) }
	case uint8(ir.OpShr):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] >> (uint64(regs[b]) & 63); next(v, regs) }
	case uint8(ir.OpNeg):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = -regs[a]; next(v, regs) }
	case uint8(ir.OpNot):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = ^regs[a]; next(v, regs) }
	case uint8(ir.OpAddI):
		dst, a, imm := in.dst, in.a, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] + imm; next(v, regs) }
	case uint8(ir.OpMulI):
		dst, a, imm := in.dst, in.a, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] * imm; next(v, regs) }
	case uint8(ir.OpAndI):
		dst, a, imm := in.dst, in.a, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] & imm; next(v, regs) }
	case uint8(ir.OpShlI):
		dst, a := in.dst, in.a
		sh := uint64(in.imm) & 63
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] << sh; next(v, regs) }
	case uint8(ir.OpShrI):
		dst, a := in.dst, in.a
		sh := uint64(in.imm) & 63
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] >> sh; next(v, regs) }
	case uint8(ir.OpFAdd):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(ir.BitsFloat(regs[a]) + ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFSub):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(ir.BitsFloat(regs[a]) - ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFMul):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(ir.BitsFloat(regs[a]) * ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFDiv):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(ir.BitsFloat(regs[a]) / ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFNeg):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(-ir.BitsFloat(regs[a]))
			next(v, regs)
		}
	case uint8(ir.OpIToF):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = ir.FloatBits(float64(regs[a])); next(v, regs) }
	case uint8(ir.OpFToI):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = int64(ir.BitsFloat(regs[a])); next(v, regs) }
	case uint8(ir.OpEq):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = b2i(regs[a] == regs[b]); next(v, regs) }
	case uint8(ir.OpNe):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = b2i(regs[a] != regs[b]); next(v, regs) }
	case uint8(ir.OpLt):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = b2i(regs[a] < regs[b]); next(v, regs) }
	case uint8(ir.OpLe):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = b2i(regs[a] <= regs[b]); next(v, regs) }
	case uint8(ir.OpFEq):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = b2i(ir.BitsFloat(regs[a]) == ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFLt):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = b2i(ir.BitsFloat(regs[a]) < ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFLe):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = b2i(ir.BitsFloat(regs[a]) <= ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpLoad):
		dst, a, off := in.dst, in.a, in.imm
		pcv := pc
		adjC, adjO := rc-1, ro
		return func(v *cvm, regs []int64) {
			addr := regs[a] + off
			mem := v.mem
			if addr < 0 || addr >= int64(len(mem)) {
				v.oob(pcv, adjC, adjO, "load", addr)
				return
			}
			regs[dst] = mem[addr]
			next(v, regs)
		}
	case uint8(ir.OpStore):
		a, b, off := in.a, in.b, in.imm
		pcv := pc
		adjC, adjO := rc-1, ro
		return func(v *cvm, regs []int64) {
			addr := regs[a] + off
			mem := v.mem
			if addr < 0 || addr >= int64(len(mem)) {
				v.oob(pcv, adjC, adjO, "store", addr)
				return
			}
			mem[addr] = regs[b]
			if addr >= v.stackBase {
				if addr < v.sLo {
					v.sLo = addr
				}
				if addr > v.sHi {
					v.sHi = addr
				}
			} else {
				if addr < v.dLo {
					v.dLo = addr
				}
				if addr > v.dHi {
					v.dHi = addr
				}
			}
			next(v, regs)
		}
	case uint8(ir.OpFrame):
		dst, off := in.dst, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = v.fp + off; next(v, regs) }
	case uint8(ir.OpCall):
		c := p.calls[in.aux]
		fn, args, dst := c.fn, c.args, c.dst
		var entryStep step
		if c.entry >= 0 {
			entryStep = cp.resume[c.entry]
		}
		retPC := pc + 1
		adjC, adjO := rc-1, ro
		return func(v *cvm, regs []int64) {
			// Make the counters exact across the call: the pre-added tail
			// of the caller's block is re-added by resume[retPC] on return,
			// so nested frames never see inflated counts at their own sync
			// points (SetRecovery, traps).
			v.count -= adjC
			v.ovh -= adjO
			m := v.m
			fr := &m.frames[len(m.frames)-1]
			fr.retPC, fr.retDst = retPC, dst
			nf, err := m.newFrame(fn)
			if err != nil {
				v.exit = exitTrap
				v.err = err
				return
			}
			for i, r := range args {
				nf.regs[i] = regs[r]
			}
			v.regs = nf.regs
			v.fp = nf.fp
			if entryStep == nil {
				panic("interp: closure engine: call to function without body")
			}
			v.next = entryStep
		}
	case uint8(ir.OpExtern):
		e := p.externs[in.aux]
		name, fn, eargs, dst := e.name, e.fn, e.args, e.dst
		if fn == nil {
			adjC, adjO := rc-1, ro
			return func(v *cvm, _ []int64) {
				v.count -= adjC
				v.ovh -= adjO
				v.exit = exitTrap
				v.err = v.m.trap(ErrExtern, "%q", name)
			}
		}
		// Builtins read only their arguments and touch no counter,
		// watermark or frame (builtinExterns), so the shadow state needs
		// no sync around the call.
		return func(v *cvm, regs []int64) {
			m := v.m
			m.extArgs = m.extArgs[:0]
			for _, r := range eargs {
				m.extArgs = append(m.extArgs, regs[r])
			}
			regs[dst] = fn(m, m.extArgs)
			next(v, regs)
		}
	case uint8(ir.OpSetRecovery):
		adjC := rc - 1
		if in.imm < 0 {
			// Disarm at an unselected region header.
			return func(v *cvm, regs []int64) {
				m := v.m
				fr := &m.frames[len(m.frames)-1]
				if fr.region != nil {
					m.freeRegion(fr.region)
					fr.region = nil
				}
				next(v, regs)
			}
		}
		// The region ID (not its meta) is bound at compile time: compiled
		// programs are shared across pooled machines, and each machine
		// registers its own RegionMeta table via SetRuntime.
		rid := int(in.imm)
		return func(v *cvm, regs []int64) {
			m := v.m
			fr := &m.frames[len(m.frames)-1]
			meta := m.regions[rid]
			m.instanceSeq++
			m.RegionEntries++
			if fr.region != nil {
				m.freeRegion(fr.region)
			}
			rs := m.allocRegion()
			rs.meta = meta
			rs.instance = m.instanceSeq
			rs.frame = len(m.frames) - 1
			rs.entryCount = v.count - adjC
			fr.region = rs
			next(v, regs)
		}
	case uint8(ir.OpCkptReg):
		a := in.a
		return func(v *cvm, regs []int64) {
			m := v.m
			fr := &m.frames[len(m.frames)-1]
			if fr.region != nil {
				fr.region.entries = append(fr.region.entries,
					ckptEntry{isMem: false, key: int64(a), val: regs[a]})
				fr.region.bytes += 4
				m.CkptRegBytes += 4
				if fr.region.bytes > m.MaxBufferBytes {
					m.MaxBufferBytes = fr.region.bytes
				}
			}
			next(v, regs)
		}
	case uint8(ir.OpCkptMem):
		a, off := in.a, in.imm
		// OpCkptMem costs two counts; its reference-loop OOB trap fires
		// after only the first (plus one overhead), hence the -1
		// adjustments.
		adjC, adjO := rc-1, ro-1
		return func(v *cvm, regs []int64) {
			m := v.m
			addr := regs[a] + off
			mem := v.mem
			if addr < 0 || addr >= int64(len(mem)) {
				v.count -= adjC
				v.ovh -= adjO
				v.exit = exitTrap
				v.err = m.trap(ErrOutOfBounds, "ckptmem [%d] in %s", addr, m.frames[len(m.frames)-1].fn.Name)
				return
			}
			fr := &m.frames[len(m.frames)-1]
			if fr.region != nil {
				fr.region.entries = append(fr.region.entries,
					ckptEntry{isMem: true, key: addr, val: mem[addr]})
				fr.region.bytes += 8
				m.CkptMemBytes += 8
				if fr.region.bytes > m.MaxBufferBytes {
					m.MaxBufferBytes = fr.region.bytes
				}
			}
			next(v, regs)
		}
	case uint8(ir.OpRestore):
		return func(v *cvm, regs []int64) {
			fr := &v.m.frames[len(v.m.frames)-1]
			if fr.region != nil {
				mem := v.mem
				for i := len(fr.region.entries) - 1; i >= 0; i-- {
					e := fr.region.entries[i]
					if e.isMem {
						mem[e.key] = e.val
						if e.key >= v.stackBase {
							if e.key < v.sLo {
								v.sLo = e.key
							}
							if e.key > v.sHi {
								v.sHi = e.key
							}
						} else {
							if e.key < v.dLo {
								v.dLo = e.key
							}
							if e.key > v.dHi {
								v.dHi = e.key
							}
						}
					} else {
						regs[e.key] = e.val
					}
				}
				fr.region.entries = fr.region.entries[:0]
			}
			next(v, regs)
		}

	case dJmp:
		tstep := cp.resume[in.aux]
		if profiled {
			blk, eb := in.dst, in.b
			return func(v *cvm, _ []int64) {
				v.pBlocks[blk]++
				v.pEdges[eb]++
				v.next = tstep
			}
		}
		return func(v *cvm, _ []int64) { v.next = tstep }
	case dBr:
		cond := in.a
		thenStep := cp.resume[in.aux]
		elseStep := cp.resume[int32(in.imm)]
		if profiled {
			blk, eb := in.dst, in.b
			return func(v *cvm, regs []int64) {
				v.pBlocks[blk]++
				if regs[cond] != 0 {
					v.pEdges[eb]++
					v.next = thenStep
				} else {
					v.pEdges[eb+1]++
					v.next = elseStep
				}
			}
		}
		return func(v *cvm, regs []int64) {
			if regs[cond] != 0 {
				v.next = thenStep
			} else {
				v.next = elseStep
			}
		}
	case dSwitch:
		cond := in.a
		tbl := p.switches[in.aux]
		targets := make([]step, len(tbl))
		for i, t := range tbl {
			targets[i] = cp.resume[t]
		}
		if profiled {
			blk := in.dst
			eb := int64(in.b)
			return func(v *cvm, regs []int64) {
				i := regs[cond]
				if i < 0 {
					i = 0
				}
				if i >= int64(len(targets)) {
					i = int64(len(targets)) - 1
				}
				v.pBlocks[blk]++
				v.pEdges[eb+i]++
				v.next = targets[i]
			}
		}
		return func(v *cvm, regs []int64) {
			i := regs[cond]
			if i < 0 {
				i = 0
			}
			if i >= int64(len(targets)) {
				i = int64(len(targets)) - 1
			}
			v.next = targets[i]
		}
	case dRet:
		val := in.a
		if profiled {
			blk := in.dst
			return func(v *cvm, regs []int64) {
				v.pBlocks[blk]++
				var ret int64
				if val >= 0 {
					ret = regs[val]
				}
				m := v.m
				m.popFrame()
				if len(m.frames) <= v.baseDepth {
					v.retVal = ret
					v.exit = exitDone
					return
				}
				fr := &m.frames[len(m.frames)-1]
				if fr.retDst >= 0 {
					fr.regs[fr.retDst] = ret
				}
				v.regs = fr.regs
				v.fp = fr.fp
				v.next = cp.resume[fr.retPC]
			}
		}
		return func(v *cvm, regs []int64) {
			var ret int64
			if val >= 0 {
				ret = regs[val]
			}
			m := v.m
			m.popFrame()
			if len(m.frames) <= v.baseDepth {
				v.retVal = ret
				v.exit = exitDone
				return
			}
			fr := &m.frames[len(m.frames)-1]
			if fr.retDst >= 0 {
				fr.regs[fr.retDst] = ret
			}
			v.regs = fr.regs
			v.fp = fr.fp
			v.next = cp.resume[fr.retPC]
		}
	default:
		op, pcv := in.op, pc
		adjC, adjO := rc-1, ro
		return func(v *cvm, _ []int64) {
			v.count -= adjC
			v.ovh -= adjO
			v.exit = exitTrap
			v.err = v.m.trap(ErrOutOfBounds, "bad opcode %d at pc %d", op, pcv)
		}
	}
}

// loopClosureFrom runs the closure engine from pc until the frame stack
// drains back past baseDepth — entered through Machine.enter or by the
// reference loop handing control back. Any stop event (fastStop)
// terminates the compiled segment by delegating it to the reference loop,
// whose per-instruction checks meet the event bit-identically; a symptom
// (out-of-bounds access under a pending fault) hands over the same way
// with detection rescheduled to fire at once. Both engines keep return
// points and profile counts in one form, so either handoff passes only
// the pc.
func (m *Machine) loopClosureFrom(baseDepth int, pc int32) (int64, error) {
	p := m.program()
	cp := p.closures(m.Prof != nil)
	if m.Prof != nil && len(m.pBlocks) != len(p.blocks) {
		m.pBlocks = make([]int64, len(p.blocks))
		m.pEdges = make([]int64, p.numEdges)
	}
	fr := &m.frames[len(m.frames)-1]
	v := &cvm{
		m:         m,
		mem:       m.Mem,
		count:     m.Count,
		ovh:       m.Count - m.BaseCount,
		stop:      m.fastStop(),
		dLo:       m.dirtyLo,
		dHi:       m.dirtyHi,
		sLo:       m.dirtyStkLo,
		sHi:       m.dirtyStkHi,
		stackBase: m.stackBase,
		regs:      fr.regs,
		fp:        fr.fp,
		pBlocks:   m.pBlocks,
		pEdges:    m.pEdges,
		baseDepth: baseDepth,
	}
	v.next = cp.resume[pc]
	for v.next != nil {
		s := v.next
		v.next = nil
		s(v, v.regs)
	}
	// Write the shadow state back and fold the dense profile counters
	// into the Profile maps.
	m.Count, m.BaseCount = v.count, v.count-v.ovh
	m.dirtyLo, m.dirtyHi = v.dLo, v.dHi
	m.dirtyStkLo, m.dirtyStkHi = v.sLo, v.sHi
	if m.pBlocks != nil {
		m.mergeDense(p)
	}
	until := v.stop
	switch v.exit {
	case exitDone:
		return v.retVal, nil
	case exitTrap:
		return 0, v.err
	case exitSymptom:
		// Address faults are "highly visible symptoms" (§4.3): exactly
		// like the reference loop's symptomTrap path, the access retires
		// its count without executing and detection fires immediately,
		// at the same position on the reference loop.
		m.fault.detectAt = m.Count
		until = m.Count
	}
	m.HandoffsToRef++
	return m.loopRefFrom(baseDepth, v.delegPC, until)
}

// closures returns the Program's compiled form for the requested
// profiling variant, building it on first use. Compiled programs are
// immutable and shared across machines, concurrent ones included.
func (p *Program) closures(profiled bool) *cprog {
	i := 0
	if profiled {
		i = 1
	}
	p.closOnce[i].Do(func() {
		p.clos[i] = compileClosures(p, profiled)
	})
	return p.clos[i]
}
