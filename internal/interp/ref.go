package interp

import (
	"encore/internal/ir"
)

// loopRefFrom is the reference interpreter core: it walks the ir.Block /
// ir.Instr structures directly and carries the full observation machinery
// (hooks, fault injection points, scheduled detection). It runs from pc
// until the frame stack drains back past baseDepth, returning the value of
// the final return. It keeps machine state exactly as the default engine
// does, so a handoff in either direction passes only a pc: return points
// are pcs (a call takes its return pc from Program.blockPC, a return
// resolves it through Program.refPos), and a block is counted in the
// profile when its terminator retires. Its profile stays keyed by
// *ir.Block, and its instruction semantics and branch targets come from
// the ir structures alone.
//
// The default engine (closure.go) must stay observationally equivalent
// to this loop: identical return values, Count/BaseCount, checkpoint-byte
// counters, and profile counts. The equivalence guard tests
// (equiv_test.go) pin that down for every workload, faulted and trapped
// runs included; EngineRef forces this loop for such comparisons.
//
// until is the dynamic count before which the loop keeps the run: the
// default engine delegates a stop segment with until at its stop, so the
// stop event happens here; math.MaxInt64 pins the run to this loop.
func (m *Machine) loopRefFrom(baseDepth int, pc int32, until int64) (int64, error) {
	p := m.program()
	b, idx := p.refPos(pc)
	fr := &m.frames[len(m.frames)-1]
	var retVal int64

	for {
		if m.Count >= m.Cfg.MaxInstrs {
			return 0, m.trap(ErrBudget, "in %s at %s", fr.fn.Name, b)
		}
		// Once the stop event is behind it, the reference loop hands the
		// run back to the default engine as soon as any fault is
		// quiescent: injected with detection still in the future (the
		// mirror image of the InjectAt-1 pause), or fully settled. A
		// detection that is already due must fire here first. A capture
		// rung reached here is frozen at this exact boundary, and a
		// reconvergence stop is compared here; a match ends the run with
		// the golden run's result.
		if m.Count >= until && (m.fault == nil ||
			m.fault.injected && (m.fault.detected || m.Count < m.fault.detectAt)) {
			pc := p.blockPC[b] + int32(idx)
			if m.capt != nil && m.Count >= m.capt.next {
				m.captureSnapshot(pc)
			}
			if m.reconv.settled && m.reconverged(pc) {
				return m.reconv.lad.ret, nil
			}
			m.HandoffsToFast++
			return m.loopClosureFrom(baseDepth, pc)
		}
		if m.Cfg.Hook != nil {
			m.Cfg.Hook.OnInstr(m, b, idx)
		}

		// Register-file strikes and phantom (detection-only) faults fire
		// between instructions; CorruptOutput instead fires at the
		// instruction-output injection points below.
		if m.fault != nil && !m.fault.injected && m.Count >= m.fault.plan.InjectAt {
			switch m.fault.plan.Mode {
			case CorruptRegFile:
				m.injectReg(fr, ir.Reg(m.fault.plan.TargetReg%len(fr.regs)), b, idx)
			case PhantomFault:
				m.landed(b, idx)
			}
		}
		// Scheduled fault detection fires between instructions.
		if m.fault != nil && m.fault.injected && !m.fault.detected && m.Count >= m.fault.detectAt {
			nb, nidx, ok := m.detect()
			switch {
			case ok:
				fr = &m.frames[len(m.frames)-1]
				b, idx = nb, nidx
				continue
			case m.fault.report.Ignored:
				// Tolerant region: resume in place.
			default:
				// Unrecoverable detection: surface as a detection trap.
				return 0, ErrDetectedUnrecoverable
			}
		}

		if idx < len(b.Instrs) {
			in := &b.Instrs[idx]
			m.Count++
			if !in.Op.IsCkpt() {
				m.BaseCount++
			}
			switch in.Op {
			case ir.OpConst:
				fr.regs[in.Dst] = in.Imm
			case ir.OpMov:
				fr.regs[in.Dst] = fr.regs[in.A]
			case ir.OpAdd:
				fr.regs[in.Dst] = fr.regs[in.A] + fr.regs[in.B]
			case ir.OpSub:
				fr.regs[in.Dst] = fr.regs[in.A] - fr.regs[in.B]
			case ir.OpMul:
				fr.regs[in.Dst] = fr.regs[in.A] * fr.regs[in.B]
			case ir.OpDiv:
				if d := fr.regs[in.B]; d != 0 {
					fr.regs[in.Dst] = fr.regs[in.A] / d
				} else {
					fr.regs[in.Dst] = 0
				}
			case ir.OpRem:
				if d := fr.regs[in.B]; d != 0 {
					fr.regs[in.Dst] = fr.regs[in.A] % d
				} else {
					fr.regs[in.Dst] = 0
				}
			case ir.OpAnd:
				fr.regs[in.Dst] = fr.regs[in.A] & fr.regs[in.B]
			case ir.OpOr:
				fr.regs[in.Dst] = fr.regs[in.A] | fr.regs[in.B]
			case ir.OpXor:
				fr.regs[in.Dst] = fr.regs[in.A] ^ fr.regs[in.B]
			case ir.OpShl:
				fr.regs[in.Dst] = fr.regs[in.A] << (uint64(fr.regs[in.B]) & 63)
			case ir.OpShr:
				fr.regs[in.Dst] = fr.regs[in.A] >> (uint64(fr.regs[in.B]) & 63)
			case ir.OpNeg:
				fr.regs[in.Dst] = -fr.regs[in.A]
			case ir.OpNot:
				fr.regs[in.Dst] = ^fr.regs[in.A]
			case ir.OpAddI:
				fr.regs[in.Dst] = fr.regs[in.A] + in.Imm
			case ir.OpMulI:
				fr.regs[in.Dst] = fr.regs[in.A] * in.Imm
			case ir.OpAndI:
				fr.regs[in.Dst] = fr.regs[in.A] & in.Imm
			case ir.OpShlI:
				fr.regs[in.Dst] = fr.regs[in.A] << (uint64(in.Imm) & 63)
			case ir.OpShrI:
				fr.regs[in.Dst] = fr.regs[in.A] >> (uint64(in.Imm) & 63)
			case ir.OpFAdd:
				fr.regs[in.Dst] = ir.FloatBits(ir.BitsFloat(fr.regs[in.A]) + ir.BitsFloat(fr.regs[in.B]))
			case ir.OpFSub:
				fr.regs[in.Dst] = ir.FloatBits(ir.BitsFloat(fr.regs[in.A]) - ir.BitsFloat(fr.regs[in.B]))
			case ir.OpFMul:
				fr.regs[in.Dst] = ir.FloatBits(ir.BitsFloat(fr.regs[in.A]) * ir.BitsFloat(fr.regs[in.B]))
			case ir.OpFDiv:
				fr.regs[in.Dst] = ir.FloatBits(ir.BitsFloat(fr.regs[in.A]) / ir.BitsFloat(fr.regs[in.B]))
			case ir.OpFNeg:
				fr.regs[in.Dst] = ir.FloatBits(-ir.BitsFloat(fr.regs[in.A]))
			case ir.OpIToF:
				fr.regs[in.Dst] = ir.FloatBits(float64(fr.regs[in.A]))
			case ir.OpFToI:
				fr.regs[in.Dst] = int64(ir.BitsFloat(fr.regs[in.A]))
			case ir.OpEq:
				fr.regs[in.Dst] = b2i(fr.regs[in.A] == fr.regs[in.B])
			case ir.OpNe:
				fr.regs[in.Dst] = b2i(fr.regs[in.A] != fr.regs[in.B])
			case ir.OpLt:
				fr.regs[in.Dst] = b2i(fr.regs[in.A] < fr.regs[in.B])
			case ir.OpLe:
				fr.regs[in.Dst] = b2i(fr.regs[in.A] <= fr.regs[in.B])
			case ir.OpFEq:
				fr.regs[in.Dst] = b2i(ir.BitsFloat(fr.regs[in.A]) == ir.BitsFloat(fr.regs[in.B]))
			case ir.OpFLt:
				fr.regs[in.Dst] = b2i(ir.BitsFloat(fr.regs[in.A]) < ir.BitsFloat(fr.regs[in.B]))
			case ir.OpFLe:
				fr.regs[in.Dst] = b2i(ir.BitsFloat(fr.regs[in.A]) <= ir.BitsFloat(fr.regs[in.B]))
			case ir.OpLoad:
				addr := fr.regs[in.A] + in.Imm
				if addr < 0 || addr >= int64(len(m.Mem)) {
					if m.symptomTrap() {
						continue // detector fires immediately on the trap symptom
					}
					return 0, m.trap(ErrOutOfBounds, "load [%d] in %s %s", addr, fr.fn.Name, b)
				}
				fr.regs[in.Dst] = m.Mem[addr]
			case ir.OpStore:
				addr := fr.regs[in.A] + in.Imm
				if addr < 0 || addr >= int64(len(m.Mem)) {
					if m.symptomTrap() {
						continue // detector fires immediately on the trap symptom
					}
					return 0, m.trap(ErrOutOfBounds, "store [%d] in %s %s", addr, fr.fn.Name, b)
				}
				m.Mem[addr] = fr.regs[in.B]
				m.noteDirty(addr)
				if m.fault != nil && !m.fault.injected && m.fault.plan.Mode == CorruptOutput && m.Count >= m.fault.plan.InjectAt {
					m.injectMem(addr, b, idx)
				}
			case ir.OpFrame:
				fr.regs[in.Dst] = fr.fp + in.Imm
			case ir.OpGlobal:
				fr.regs[in.Dst] = m.Mod.Globals[in.Imm].Addr
			case ir.OpCall:
				args := make([]int64, len(in.Args))
				for i, r := range in.Args {
					args[i] = fr.regs[r]
				}
				fr.retPC, fr.retDst = p.blockPC[b]+int32(idx+1), int32(in.Dst)
				if err := m.pushFrame(in.Callee, args); err != nil {
					return 0, err
				}
				fr = &m.frames[len(m.frames)-1]
				b = fr.fn.Entry()
				idx = 0
				continue
			case ir.OpExtern:
				ef := builtinExterns[in.Extern]
				if ef == nil {
					return 0, m.trap(ErrExtern, "%q", in.Extern)
				}
				args := make([]int64, len(in.Args))
				for i, r := range in.Args {
					args[i] = fr.regs[r]
				}
				fr.regs[in.Dst] = ef(m, args)
			case ir.OpSetRecovery:
				if in.Imm < 0 {
					// Disarm at an unselected region header: the previous
					// arm must not survive into unanalyzed code.
					if fr.region != nil {
						m.freeRegion(fr.region)
						fr.region = nil
					}
				} else {
					meta := m.regions[int(in.Imm)]
					m.instanceSeq++
					m.RegionEntries++
					if fr.region != nil {
						m.freeRegion(fr.region)
					}
					rs := m.allocRegion()
					rs.meta = meta
					rs.instance = m.instanceSeq
					rs.frame = len(m.frames) - 1
					rs.entryCount = m.Count
					fr.region = rs
				}
			case ir.OpCkptReg:
				if fr.region != nil {
					fr.region.entries = append(fr.region.entries,
						ckptEntry{isMem: false, key: int64(in.A), val: fr.regs[in.A]})
					fr.region.bytes += 4
					m.CkptRegBytes += 4
					if fr.region.bytes > m.MaxBufferBytes {
						m.MaxBufferBytes = fr.region.bytes
					}
				}
			case ir.OpCkptMem:
				addr := fr.regs[in.A] + in.Imm2
				if addr < 0 || addr >= int64(len(m.Mem)) {
					return 0, m.trap(ErrOutOfBounds, "ckptmem [%d] in %s", addr, fr.fn.Name)
				}
				if fr.region != nil {
					fr.region.entries = append(fr.region.entries,
						ckptEntry{isMem: true, key: addr, val: m.Mem[addr]})
					fr.region.bytes += 8
					m.CkptMemBytes += 8
					if fr.region.bytes > m.MaxBufferBytes {
						m.MaxBufferBytes = fr.region.bytes
					}
				}
				m.Count++ // memory checkpoints cost two instructions (addr+data)
			case ir.OpRestore:
				if fr.region != nil {
					for i := len(fr.region.entries) - 1; i >= 0; i-- {
						e := fr.region.entries[i]
						if e.isMem {
							m.Mem[e.key] = e.val
							m.noteDirty(e.key)
						} else {
							fr.regs[e.key] = e.val
						}
					}
					fr.region.entries = fr.region.entries[:0]
				}
			default:
				return 0, m.trap(ErrOutOfBounds, "bad opcode %s", in.Op)
			}
			// Register-output fault injection point.
			if m.fault != nil && !m.fault.injected && m.fault.plan.Mode == CorruptOutput && m.Count >= m.fault.plan.InjectAt {
				if d := in.Def(); d != ir.NoReg {
					m.injectReg(fr, d, b, idx)
				}
			}
			idx++
			continue
		}

		// Terminator.
		m.Count++
		m.BaseCount++
		if m.Prof != nil {
			m.Prof.Block[b]++
		}
		t := &b.Term
		var next *ir.Block
		switch t.Op {
		case ir.TermJmp:
			next = t.Targets[0]
			m.countEdge(b, 0)
		case ir.TermBr:
			if fr.regs[t.Cond] != 0 {
				next = t.Targets[0]
				m.countEdge(b, 0)
			} else {
				next = t.Targets[1]
				m.countEdge(b, 1)
			}
		case ir.TermSwitch:
			i := fr.regs[t.Cond]
			if i < 0 {
				i = 0
			}
			if i >= int64(len(t.Targets)) {
				i = int64(len(t.Targets)) - 1
			}
			next = t.Targets[i]
			m.countEdge(b, int(i))
		case ir.TermRet:
			if t.HasVal {
				retVal = fr.regs[t.Val]
			} else {
				retVal = 0
			}
			m.popFrame()
			if len(m.frames) <= baseDepth {
				return retVal, nil
			}
			fr = &m.frames[len(m.frames)-1]
			if fr.retDst >= 0 {
				fr.regs[fr.retDst] = retVal
			}
			b, idx = p.refPos(fr.retPC)
			continue
		}
		b = next
		idx = 0
	}
}

func (m *Machine) countEdge(b *ir.Block, succ int) {
	if m.Prof == nil {
		return
	}
	e := m.Prof.Edge[b]
	if e == nil {
		e = make([]int64, len(b.Term.Targets))
		m.Prof.Edge[b] = e
	}
	e[succ]++
}
