// Package xform performs Encore's instrumentation (paper §3.2): for every
// selected region it materializes
//
//   - a region entry block executed only when control enters the region
//     from outside, holding the recovery-address update (OpSetRecovery)
//     and the live-in register checkpoints (OpCkptReg);
//   - an OpCkptMem before every store in the checkpoint set CP, saving the
//     about-to-be-overwritten word (data + address, hence the 2-instruction
//     cost) into the region's reserved buffer;
//   - a recovery block — the destination of all rollbacks — that restores
//     the checkpointed state (OpRestore) and re-dispatches to the region
//     entry.
//
// The recovery-address update sits at the top of the header block itself,
// so it re-arms on every header execution: a loop region rolls back at
// iteration granularity. Together with the fixed-slot constraint enforced
// during region selection (no CP store in a nested loop), this keeps each
// region's checkpoint buffer at the paper's 10-100 byte scale (Table 1).
//
// Headers of UNSELECTED regions in an instrumented function get a disarm
// instead: OpSetRecovery with a negative region ID, clearing the frame's
// recovery pointer. Regions partition a function's blocks and every
// region-exit edge lands on another region's header (single-entry), so
// without the disarm a selected region's arm would stay live while
// control traverses an unselected region whose stores were never
// analyzed — a fault detected there (or at the selected header's
// boundary, before its re-arm executes) would roll back across
// uncheckpointed state and silently corrupt the run. With the disarm,
// an armed window is always confined to the armed region's own blocks
// and faults landing in unselected code report as unrecoverable, which
// is exactly what the coverage model (Eq. 7) predicts for them.
package xform

import (
	"fmt"
	"sort"

	"encore/internal/alias"
	"encore/internal/idem"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/region"
)

// RegionStats reports the static instrumentation applied to one region.
type RegionStats struct {
	RegionID  int
	MemCkpts  int // OpCkptMem sites inserted
	RegCkpts  int // OpCkptReg instructions at region entry
	AddedOps  int // total static instructions added (entry + ckpts + recovery)
	Unplaced  int // CP stores that could not be checkpointed (should be 0 for selected regions)
	EntryName string
}

// Stats aggregates instrumentation over a module.
type Stats struct {
	Regions []RegionStats
	// Disarms counts the recovery-pointer clears prepended to unselected
	// region headers in instrumented functions.
	Disarms int
}

// TotalMemCkpts sums memory checkpoint sites.
func (s *Stats) TotalMemCkpts() int {
	n := 0
	for _, r := range s.Regions {
		n += r.MemCkpts
	}
	return n
}

// Instrument rewrites the functions of mod in place, instrumenting every
// selected region, and returns the runtime region metadata for
// interp.Machine.SetRuntime plus static statistics. Region IDs must be
// unique across the whole module (the caller assigns them).
func Instrument(mod *ir.Module, regions []*region.Region) ([]interp.RegionMeta, *Stats, error) {
	stats := &Stats{}
	var metas []interp.RegionMeta

	byFunc := map[*ir.Func][]*region.Region{}
	unselByFunc := map[*ir.Func][]*region.Region{}
	for _, r := range regions {
		if r.Selected {
			byFunc[r.Fn] = append(byFunc[r.Fn], r)
		} else {
			unselByFunc[r.Fn] = append(unselByFunc[r.Fn], r)
		}
	}

	for _, f := range mod.Funcs {
		rs := byFunc[f]
		if len(rs) == 0 {
			continue
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })

		// Phase 1: insert memory checkpoints before CP stores. Collect all
		// insertions per block first, then splice descending so indices
		// stay valid.
		type insertion struct {
			idx    int
			instrs []ir.Instr
			rid    int
		}
		perBlock := map[*ir.Block][]insertion{}
		regStats := map[int]*RegionStats{}
		for _, r := range rs {
			st := &RegionStats{RegionID: r.ID}
			regStats[r.ID] = st
			for _, cp := range r.Analysis.CP {
				seq, err := ckptInstrs(f, cp, r.ID)
				if err != nil {
					st.Unplaced++
					continue
				}
				perBlock[cp.Pos.Block] = append(perBlock[cp.Pos.Block], insertion{cp.Pos.Index, seq, r.ID})
				st.MemCkpts++
			}
		}
		for b, list := range perBlock {
			sort.Slice(list, func(i, j int) bool { return list[i].idx > list[j].idx })
			for _, insn := range list {
				k := len(insn.instrs)
				b.Instrs = append(b.Instrs, make([]ir.Instr, k)...)
				copy(b.Instrs[insn.idx+k:], b.Instrs[insn.idx:])
				copy(b.Instrs[insn.idx:], insn.instrs)
				regStats[insn.rid].AddedOps += k
			}
		}

		// Phase 2: per-region header prologue and recovery block. The
		// prologue (recovery-address update + live-in register checkpoints)
		// is prepended to the header block so it executes on every header
		// pass, re-arming the region each iteration.
		for _, r := range rs {
			st := regStats[r.ID]
			header := r.Header
			prologue := make([]ir.Instr, 0, 1+len(r.RegCkpts))
			prologue = append(prologue, ir.Instr{
				Op: ir.OpSetRecovery, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Imm: int64(r.ID)})
			for _, reg := range r.RegCkpts {
				prologue = append(prologue, ir.Instr{
					Op: ir.OpCkptReg, Dst: ir.NoReg, A: reg, B: ir.NoReg, Imm: int64(r.ID)})
				st.RegCkpts++
			}
			header.Instrs = append(prologue, header.Instrs...)
			st.AddedOps += len(prologue)
			st.EntryName = header.Name

			recover := f.NewBlock(fmt.Sprintf("r%d.recover", r.ID))
			recover.Restore(r.ID)
			recover.Jmp(header)
			st.AddedOps += 2

			policy := interp.ReExecute
			if f.Tolerant {
				policy = interp.IgnoreFault
			}
			metas = append(metas, interp.RegionMeta{ID: r.ID, Fn: f, Header: header, Recovery: recover, Policy: policy})
			stats.Regions = append(stats.Regions, *st)
		}

		// Phase 3: disarm at every unselected region header, so a selected
		// region's arm cannot survive an exit into code whose stores were
		// never analyzed (see the package comment).
		unsel := unselByFunc[f]
		sort.Slice(unsel, func(i, j int) bool { return unsel[i].ID < unsel[j].ID })
		for _, r := range unsel {
			r.Header.Instrs = append([]ir.Instr{{
				Op: ir.OpSetRecovery, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Imm: -1}},
				r.Header.Instrs...)
			stats.Disarms++
		}
		f.Recompute()
	}
	if err := mod.Verify(); err != nil {
		return nil, nil, fmt.Errorf("xform: instrumented module invalid: %w", err)
	}
	return metas, stats, nil
}

// ckptInstrs builds the checkpoint sequence for one CP store. Direct
// stores reuse the store's own address operand; call-summarized stores
// with a statically known location get the address materialized into a
// fresh scratch register first.
func ckptInstrs(f *ir.Func, cp idem.StoreRef, rid int) ([]ir.Instr, error) {
	b := cp.Pos.Block
	if cp.Pos.Index >= len(b.Instrs) {
		return nil, fmt.Errorf("stale CP position in %s", b)
	}
	in := &b.Instrs[cp.Pos.Index]
	if !cp.FromCall {
		if in.Op != ir.OpStore {
			return nil, fmt.Errorf("CP entry is not a store in %s[%d]", b, cp.Pos.Index)
		}
		return []ir.Instr{{Op: ir.OpCkptMem, Dst: ir.NoReg, A: in.A, B: ir.NoReg,
			Imm: int64(rid), Imm2: in.Imm}}, nil
	}
	if !cp.Checkpointable() {
		return nil, fmt.Errorf("uncheckpointable call store in %s", b)
	}
	scratch := f.NewReg()
	var addr ir.Instr
	switch cp.Loc.Kind {
	case alias.KindGlobal:
		gi := int64(-1)
		for i, g := range f.Mod.Globals {
			if g == cp.Loc.Global {
				gi = int64(i)
				break
			}
		}
		if gi < 0 {
			return nil, fmt.Errorf("global %s not in module", cp.Loc.Global.Name)
		}
		addr = ir.Instr{Op: ir.OpGlobal, Dst: scratch, A: ir.NoReg, B: ir.NoReg, Imm: gi}
	case alias.KindFrame:
		if cp.Loc.Fn != f {
			return nil, fmt.Errorf("foreign frame location")
		}
		addr = ir.Instr{Op: ir.OpFrame, Dst: scratch, A: ir.NoReg, B: ir.NoReg, Imm: cp.Loc.Off}
	case alias.KindAbs:
		addr = ir.Instr{Op: ir.OpConst, Dst: scratch, A: ir.NoReg, B: ir.NoReg, Imm: cp.Loc.Off}
	default:
		return nil, fmt.Errorf("call-store checkpoint unsupported for kind %d", cp.Loc.Kind)
	}
	off := int64(0)
	if cp.Loc.Kind == alias.KindGlobal {
		off = cp.Loc.Off
	}
	return []ir.Instr{addr, {Op: ir.OpCkptMem, Dst: ir.NoReg, A: scratch, B: ir.NoReg,
		Imm: int64(rid), Imm2: off}}, nil
}
