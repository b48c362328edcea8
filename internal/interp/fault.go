package interp

import (
	"errors"

	"encore/internal/ir"
)

// ErrDetectedUnrecoverable is returned by Run when the detection mechanism
// fired but no valid rollback target existed (fault in unprotected code, or
// the owning region's frame was already gone).
var ErrDetectedUnrecoverable = errors.New("interp: fault detected with no recovery target")

// FaultMode selects what state a fault corrupts.
type FaultMode uint8

// Fault modes.
const (
	// CorruptOutput flips a bit in the value produced by the first
	// instruction retiring at or after InjectAt — the paper's "fault
	// corrupts the output of instruction i_s" model (§4.2.1), used for
	// the recovery experiments.
	CorruptOutput FaultMode = iota
	// CorruptRegFile flips a bit of an arbitrary register in the current
	// frame at InjectAt, regardless of liveness — the raw state-element
	// strike used by the hardware-masking Monte Carlo (§4, Figure 8's
	// Masked segment).
	CorruptRegFile
	// PhantomFault corrupts nothing: at InjectAt it only records the site
	// and schedules the detector. The resulting rollback re-executes the
	// covered region from its entry with bitwise-clean state, so the final
	// architectural state is a pure probe of the idempotence analysis —
	// any divergence from the fault-free run is a soundness bug in the
	// RS/GA/EA classification or checkpoint placement, not fault
	// propagation. This is the "execute the region twice" trigger used by
	// the progen idempotence oracle.
	PhantomFault
)

// FaultPlan schedules one transient fault; a symptom-based detector
// learns of the fault DetectLatency dynamic instructions after injection.
type FaultPlan struct {
	Mode          FaultMode
	InjectAt      int64
	Bit           uint8 // bit to flip in the corrupted word (0..63)
	TargetReg     int   // CorruptRegFile: register index (mod frame size)
	DetectLatency int64
}

// FaultSite records where the fault actually landed.
type FaultSite struct {
	Fn       *ir.Func
	Block    *ir.Block
	Index    int // instruction index within the block
	Count    int64
	IsMem    bool  // true if a stored memory word was corrupted
	MemAddr  int64 // corrupted address when IsMem
	Reg      ir.Reg
	RegionID int   // region active (per the recovery pointer) at injection; -1 none
	Instance int64 // region instance sequence number at injection; 0 none
}

// FaultReport summarizes what happened to an injected fault.
type FaultReport struct {
	Injected bool
	Site     FaultSite

	Detected     bool
	DetectCount  int64
	Ignored      bool  // detection resolved by the IgnoreFault policy
	RolledBack   bool  // a rollback to a recovery block was performed
	SameInstance bool  // rollback target was the same region instance as the fault site
	TargetRegion int   // region id rolled back to; -1 if none
	Unwound      int   // call frames discarded to reach the region's frame
	Rollbacks    int64 // total rollbacks performed (re-detections cannot occur; stays <=1)

	// DetectRegionID / DetectInstance identify the region instance the
	// recovery pointer named when the detector fired (the paper's
	// dedicated recovery-address cell) — the region "at detection", which
	// differs from the injection site's region when the fault propagated
	// across a region boundary before the symptom surfaced. -1 / 0 when
	// no live region existed at detection.
	DetectRegionID int
	DetectInstance int64
	// RollbackDistance is the dynamic instruction distance from the
	// rollback target instance's SetRecovery to the detection point —
	// the work a rollback discards and must re-execute. 0 when no
	// rollback happened.
	RollbackDistance int64
}

type faultState struct {
	plan     FaultPlan
	injected bool
	detected bool
	detectAt int64
	report   FaultReport
}

// InjectFault arms the machine with a fault plan for the next Run. Must be
// called after Reset; Reset clears any armed fault.
func (m *Machine) InjectFault(p FaultPlan) {
	m.fault = &faultState{plan: p, detectAt: 1<<62 - 1}
	m.fault.report.Site.RegionID = -1
	m.fault.report.TargetRegion = -1
	m.fault.report.DetectRegionID = -1
}

// FaultReport returns the report for the most recent armed fault (zero
// value if none was armed).
func (m *Machine) FaultReport() FaultReport {
	if m.fault == nil {
		return FaultReport{}
	}
	return m.fault.report
}

// landed records that the armed fault has just struck instruction idx
// of b and schedules the detector DetectLatency instructions later. A
// detection past the budget can never fire: the run ends or traps first.
// Such a fault is settled at injection with δ = 0 for an armed
// reconvergence check. The golden suffix never traps, so it raises no
// symptom either, and a full-state match at a rung still implies the
// golden future.
func (m *Machine) landed(b *ir.Block, idx int) {
	f := m.fault
	f.injected, f.report.Injected = true, true
	s := &f.report.Site
	s.Fn, s.Block, s.Index, s.Count = b.Fn, b, idx, m.Count
	if lr := m.lastRegion(); lr != nil {
		s.RegionID, s.Instance = lr.meta.ID, lr.instance
	} else {
		s.RegionID = -1
	}
	f.detectAt = m.Count + f.plan.DetectLatency
	if f.plan.DetectLatency > m.Cfg.MaxInstrs-m.Count {
		m.settleReconverge(0)
	}
}

func (m *Machine) injectReg(fr *frame, d ir.Reg, b *ir.Block, idx int) {
	fr.regs[d] ^= 1 << (m.fault.plan.Bit & 63)
	m.fault.report.Site.Reg = d
	m.landed(b, idx)
}

func (m *Machine) injectMem(addr int64, b *ir.Block, idx int) {
	m.Mem[addr] ^= 1 << (m.fault.plan.Bit & 63)
	m.noteDirty(addr)
	m.fault.report.Site.IsMem, m.fault.report.Site.MemAddr = true, addr
	m.landed(b, idx)
}

// symptomTrap reports whether a pending injected fault should absorb a
// memory trap as an immediate detection symptom (address faults "result in
// highly visible symptoms and are typically detected before they propagate",
// §4.3). When it returns true the caller re-enters the dispatch loop and the
// scheduled detection fires at once.
func (m *Machine) symptomTrap() bool {
	if m.fault != nil && m.fault.injected && !m.fault.detected {
		m.fault.detectAt = m.Count
		return true
	}
	return false
}

// lastRegion returns the most recently entered region whose frame is still
// live — the value of the paper's dedicated recovery-address memory cell,
// with staleness across returned frames detected and rejected.
func (m *Machine) lastRegion() *regionState {
	for i := len(m.frames) - 1; i >= 0; i-- {
		if r := m.frames[i].region; r != nil {
			return r
		}
	}
	return nil
}

// ActiveRegionID returns the ID of the region that would catch a fault
// detected right now — the same recovery-arm lookup detect performs — or
// -1 when no armed region is live. It is meant for hooks (the region-map
// recorder in internal/trace) that want to attribute instruction counts
// to regions during an instrumented golden run.
func (m *Machine) ActiveRegionID() int {
	if r := m.lastRegion(); r != nil && r.meta != nil {
		return r.meta.ID
	}
	return -1
}

// detect models the detector firing: control is redirected to the recovery
// block published by the most recent region entry. Frames above the
// region's frame are unwound (the stack pointer is a live-in register and
// is therefore restored by the region's register checkpoint). Returns the
// new (block, index) to resume at, or ok=false when no valid target exists.
func (m *Machine) detect() (*ir.Block, int, bool) {
	f := m.fault
	f.detected = true
	f.report.Detected = true
	f.report.DetectCount = m.Count

	target := m.lastRegion()
	if target != nil && target.meta != nil {
		f.report.DetectRegionID = target.meta.ID
		f.report.DetectInstance = target.instance
	}
	if target == nil || target.meta == nil || target.meta.Recovery == nil {
		return nil, 0, false
	}
	if target.meta.Policy == IgnoreFault {
		// Relax-style tolerant region: accept the (possibly degraded)
		// state and keep going from the detection point.
		f.report.Ignored = true
		f.report.TargetRegion = target.meta.ID
		m.settleReconverge(0)
		return nil, 0, false
	}
	// Unwind to the frame that owns the region.
	for len(m.frames)-1 > target.frame {
		m.popFrame()
		f.report.Unwound++
	}
	f.report.RolledBack = true
	f.report.Rollbacks++
	f.report.TargetRegion = target.meta.ID
	f.report.SameInstance = f.injected && target.instance == f.report.Site.Instance
	f.report.RollbackDistance = m.Count - target.entryCount
	m.settleReconverge(f.report.RollbackDistance + rollbackCost)
	return target.meta.Recovery, 0, true
}
