// Package interp executes IR modules. It is the platform substrate for the
// whole reproduction: profiling runs, dynamic trace extraction, runtime
// overhead measurement, and statistical fault injection with Encore-style
// rollback recovery all happen here.
//
// The machine models a flat, word-addressed memory holding the module's
// globals followed by a downward-growing region reserved for call frames.
// Each call frame carries its own virtual register file. Encore
// instrumentation pseudo-ops (SetRecovery/CkptReg/CkptMem/Restore) are
// executed against per-region checkpoint buffers, mirroring the reserved
// stack region the paper describes (§3.2).
//
// Execution is served by two interchangeable engines, selected by
// Config.Engine (engine.go). The default engine (closure.go) lowers the
// module to a pre-decoded flat instruction stream (decode.go) and
// AOT-compiles that into threaded-code closures — one per instruction,
// linked by direct continuation calls with block-batched instruction
// accounting and no per-instruction hook, fault, or metric checks; block
// and edge profiles are kept in dense arrays indexed by pre-decoded IDs
// and folded into the Profile maps only at loop exit. The reference
// engine (ref.go) walks the ir structures directly, carries the full
// observation machinery (hooks, fault injection, scheduled detection),
// and doubles as the semantic oracle: the equivalence guard test pins the
// default engine to it on every workload. A run may hand control back
// and forth — the default engine hands the segment reaching its next
// stop event (fault window, detection, budget, checkpoint rung) to the
// reference loop, which hands back once the event is behind it — and the
// machine counts those handoffs. Both engines keep machine state in one
// form (pc-form return points, a block counted in the profile when its
// terminator retires), so a handoff passes only a pc.
// Observability likewise stays off the hot path: a machine with an
// attached obs.Registry (AttachObs, or Config.Obs) folds its counters in
// only at Reset/Release boundaries.
package interp

import (
	"errors"
	"fmt"
	"sync"

	"encore/internal/ir"
	"encore/internal/obs"
)

// Trap classifications surfaced as errors from Run. Symptom-based
// detectors (ReStore/Shoestring) treat these as high-visibility symptoms.
var (
	ErrOutOfBounds = errors.New("interp: memory access out of bounds")
	ErrBudget      = errors.New("interp: dynamic instruction budget exhausted")
	ErrCallDepth   = errors.New("interp: call depth exceeded")
	ErrStack       = errors.New("interp: stack overflow")
	ErrNoMain      = errors.New("interp: module has no main function")
	ErrExtern      = errors.New("interp: unknown extern")
)

// Hook observes execution. OnInstr fires before each instruction;
// idx == len(b.Instrs) denotes the block terminator.
type Hook interface {
	OnInstr(m *Machine, b *ir.Block, idx int)
}

// RecoveryPolicy selects what the detector does for faults attributed to
// a region.
type RecoveryPolicy uint8

// Recovery policies.
const (
	// ReExecute rolls back to the region header after restoring
	// checkpoints — Encore's standard behavior.
	ReExecute RecoveryPolicy = iota
	// IgnoreFault resumes execution at the detection point without
	// rollback: the Relax-style option (paper §6.2) for regions whose
	// outputs tolerate degraded quality.
	IgnoreFault
)

// RegionMeta describes one instrumented region to the runtime: where its
// recovery block and header live. Produced by internal/xform.
type RegionMeta struct {
	ID       int
	Fn       *ir.Func
	Header   *ir.Block
	Recovery *ir.Block
	Policy   RecoveryPolicy
}

// ckptEntry is one checkpointed datum: a register value or a memory word.
type ckptEntry struct {
	isMem bool
	key   int64 // register number or absolute address
	val   int64
}

// regionState is the live checkpoint buffer for one region instance.
type regionState struct {
	meta     *RegionMeta
	entries  []ckptEntry
	bytes    int64 // buffer bytes this instance has accumulated
	instance int64 // global SetRecovery sequence number
	frame    int   // frame depth at which the region was entered
	// entryCount is the dynamic instruction count at the instance's
	// SetRecovery, so a rollback can report how many instructions it
	// discards (FaultReport.RollbackDistance).
	entryCount int64
}

// Config parametrizes a machine.
type Config struct {
	MemWords   int64 // total memory size in words (default ir.DefaultMemWords)
	StackWords int64 // words reserved for frames at the top of memory (default ir.DefaultStackWords)
	MaxInstrs  int64 // dynamic instruction budget (default 1<<32)
	MaxDepth   int   // call depth limit (default 1024)

	Profile bool // collect block and edge execution counts
	Hook    Hook

	// Engine selects the dispatch engine for quiescent execution
	// (engine.go): the closure-compiled engine (EngineFast, the zero
	// default) or the reference loop (EngineRef), which the equivalence
	// guard tests and benchmarks use as the semantic oracle. A Hook or
	// the active phase of a fault overrides the selection with the
	// reference loop; the engines are observationally equivalent.
	Engine Engine

	// Obs, when non-nil, attaches the machine to a metrics registry:
	// execution, checkpoint-traffic, and engine-handoff counters are
	// folded in at Reset/Release boundaries (never inside the dispatch
	// loops). Equivalent to calling AttachObs after New.
	Obs *obs.Registry
}

// Profile holds execution counts gathered during a run.
type Profile struct {
	Block map[*ir.Block]int64
	// Edge counts are indexed by (block, successor index in Term.Targets).
	Edge map[*ir.Block][]int64
}

// frame is one activation record. Popped frames keep their regs slice in
// the frames backing array so the next push at the same depth can reuse
// it (pushFrame re-zeroes reused registers).
type frame struct {
	fn   *ir.Func
	regs []int64
	fp   int64 // frame-pointer word address for OpFrame
	// Return point of the pending call, the same in both engines: the pc
	// to resume at and the destination register (-1 for none).
	retPC  int32
	retDst int32
	region *regionState // innermost active region in this frame, or nil
}

// Machine executes one module instance. Machines are single-use per Run
// but may be Reset and rerun; they are not safe for concurrent use.
type Machine struct {
	Mod *ir.Module
	Cfg Config

	Mem  []int64
	Prof *Profile

	// Count is the number of dynamic instructions retired so far.
	// Checkpoint pseudo-ops count toward it (they are real instructions in
	// the instrumented binary); OpCkptMem costs 2 (address+data stores).
	Count int64

	// BaseCount counts only non-instrumentation instructions, giving the
	// baseline dynamic length for overhead calculations.
	BaseCount int64

	// CkptRegBytes / CkptMemBytes accumulate checkpoint traffic using the
	// paper's 32-bit target model: 4 bytes per register entry, 8 bytes
	// (data+address) per memory entry.
	CkptRegBytes, CkptMemBytes int64
	// RegionEntries counts SetRecovery executions (region instances).
	RegionEntries int64
	// MaxBufferBytes is the largest checkpoint buffer any single region
	// instance accumulated — the runtime validation of Table 1's fixed
	// 10–100 B reserved stack area. The fixed-slot constraint enforced
	// during region formation guarantees it stays at (|CP|·8 + |regs|·4)
	// bytes for every selected region.
	MaxBufferBytes int64

	regions map[int]*RegionMeta

	frames   []frame
	sp       int64 // next free stack word (grows upward within stack area)
	stackTop int64

	instanceSeq int64

	fault *faultState

	output []int64 // values emitted via the "emit" extern

	// Pre-decoded program state (decode.go). prog is decoded lazily on
	// first default-engine run, or installed via UseProgram for sharing.
	prog    *Program
	extArgs []int64 // scratch argument buffer for default-engine extern calls

	// Dense profiling counters, indexed by Program block/edge IDs; merged
	// into Prof at closure-engine exit.
	pBlocks, pEdges []int64

	// Dirty-memory watermarks: the inclusive address ranges written since
	// the last Reset, tracked separately for the data segment (addr <
	// stackBase) and the stack area at the top of memory — one combined
	// range would span the untouched gap between them. Reset re-zeroes
	// only these ranges (plus global initializers) instead of the whole
	// image. hi < lo means no writes happened.
	dirtyLo, dirtyHi       int64
	dirtyStkLo, dirtyStkHi int64
	stackBase              int64 // first word of the stack area

	// lastResetWords records how many memory words the most recent Reset
	// actually cleared — observability for the dirty-range tests.
	// lastRestoreWords is the same for the most recent Restore.
	lastResetWords   int64
	lastRestoreWords int64

	// Checkpoint-ladder state (snapshot.go): capt is the schedule of an
	// active capture pass (RunWithSnapshots or RunLadder), nil otherwise,
	// and resumePC/resumeReady carry the continuation point a Restore
	// installs for Resume.
	capt        *capturePass
	resumePC    int32
	resumeReady bool
	// reconv is the golden-state reconvergence check ArmReconverge arms.
	reconv reconvState

	// obsBias subtracts a restored snapshot's accumulated counters from
	// the next obs flush: the prefix behind a Restore was never executed
	// by this machine, so the registry only accrues real dispatch work.
	obsBias struct {
		count, base, ckptReg, ckptMem, regionEntries int64
	}

	// HandoffsToRef counts default→reference engine handoffs (stop
	// events and mid-fault symptom traps); HandoffsToFast counts the
	// reference loop handing the run back to the default engine. Both
	// reset with the machine and fold into an attached registry at flush
	// boundaries.
	HandoffsToRef, HandoffsToFast int64

	obsSink *obsSink

	regionFree []*regionState // recycled checkpoint buffers
}

// obsSink caches the registry handles one attached machine folds its
// counters into, so a flush is a handful of atomic adds with no map
// lookups.
type obsSink struct {
	reg           *obs.Registry
	instrs        *obs.Counter
	base          *obs.Counter
	ckptReg       *obs.Counter
	ckptMem       *obs.Counter
	regionEntries *obs.Counter
	toRef         *obs.Counter
	toFast        *obs.Counter
	blockExecs    *obs.Counter
	edgeExecs     *obs.Counter
	resetWords    *obs.Histogram
	restoreWords  *obs.Histogram
}

// AttachObs connects the machine to reg: from now on every Reset and the
// final Release fold the machine's counters (dynamic instructions,
// checkpoint bytes, region entries, engine handoffs, dense profile
// totals) into the registry. Attaching flushes any counts pending for a
// previously attached registry first; a nil reg detaches the same way.
// Work done before the call never reaches reg: the flush bias is
// re-based on the current counters and the handoff tallies restart, so a
// pooled machine reports the same counts whatever it ran unobserved. The
// dispatch loops themselves are metric-free — this is the
// Reset/completion-boundary folding DESIGN.md §9 describes.
func (m *Machine) AttachObs(reg *obs.Registry) {
	m.flushObs()
	m.obsBias.count, m.obsBias.base = m.Count, m.BaseCount
	m.obsBias.ckptReg, m.obsBias.ckptMem = m.CkptRegBytes, m.CkptMemBytes
	m.obsBias.regionEntries = m.RegionEntries
	m.HandoffsToRef, m.HandoffsToFast = 0, 0
	if reg == nil {
		m.obsSink = nil
		return
	}
	m.obsSink = &obsSink{
		reg:           reg,
		instrs:        reg.Counter("interp.instrs.total"),
		base:          reg.Counter("interp.instrs.base"),
		ckptReg:       reg.Counter("interp.ckpt.reg_bytes"),
		ckptMem:       reg.Counter("interp.ckpt.mem_bytes"),
		regionEntries: reg.Counter("interp.region.entries"),
		toRef:         reg.Counter("interp.handoff.to_ref"),
		toFast:        reg.Counter("interp.handoff.to_fast"),
		blockExecs:    reg.Counter("interp.profile.block_execs"),
		edgeExecs:     reg.Counter("interp.profile.edge_execs"),
		resetWords:    reg.Histogram("interp.reset.words"),
		restoreWords:  reg.Histogram("interp.restore.words"),
	}
}

// flushObs folds the machine's current counters into the attached
// registry and zeroes the handoff counts (the others are zeroed by the
// Reset that follows, or become dead on Release).
func (m *Machine) flushObs() {
	s := m.obsSink
	if s == nil {
		return
	}
	s.instrs.Add(m.Count - m.obsBias.count)
	s.base.Add(m.BaseCount - m.obsBias.base)
	s.ckptReg.Add(m.CkptRegBytes - m.obsBias.ckptReg)
	s.ckptMem.Add(m.CkptMemBytes - m.obsBias.ckptMem)
	s.regionEntries.Add(m.RegionEntries - m.obsBias.regionEntries)
	s.toRef.Add(m.HandoffsToRef)
	s.toFast.Add(m.HandoffsToFast)
	m.HandoffsToRef, m.HandoffsToFast = 0, 0
	if m.Prof != nil {
		var blocks, edges int64
		for _, c := range m.Prof.Block {
			blocks += c
		}
		for _, e := range m.Prof.Edge {
			for _, c := range e {
				edges += c
			}
		}
		// The dense default-engine counters are already folded into the
		// maps: every closure-engine exit runs mergeDense, which drains
		// them, so the maps are authoritative at flush boundaries.
		s.blockExecs.Add(blocks)
		s.edgeExecs.Add(edges)
	}
}

// noteDirty widens the dirty-memory watermark covering addr.
func (m *Machine) noteDirty(addr int64) {
	if addr >= m.stackBase {
		if addr < m.dirtyStkLo {
			m.dirtyStkLo = addr
		}
		if addr > m.dirtyStkHi {
			m.dirtyStkHi = addr
		}
		return
	}
	if addr < m.dirtyLo {
		m.dirtyLo = addr
	}
	if addr > m.dirtyHi {
		m.dirtyHi = addr
	}
}

// clearDirty zeroes one watermarked range and returns how many words it
// cleared.
func (m *Machine) clearDirty(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= int64(len(m.Mem)) {
		hi = int64(len(m.Mem)) - 1
	}
	clear(m.Mem[lo : hi+1])
	return hi - lo + 1
}

// memPool recycles memory images across machines. Every pooled image is
// fully zeroed (Release clears the dirty ranges before pooling), so a
// pool hit is indistinguishable from a fresh allocation. The compile
// pipeline builds several short-lived machines per module (profiling,
// conflict observation, measurement), and zeroing each default-sized
// image from scratch was the largest allocation cost in the experiment
// suite.
var memPool sync.Pool

func grabMem(words int64) []int64 {
	if v := memPool.Get(); v != nil {
		if mem := v.([]int64); int64(len(mem)) == words {
			return mem
		}
	}
	return make([]int64, words)
}

// Release zeroes the machine's dirty memory ranges and donates the image
// to the shared pool; the machine must not be used afterwards.
func (m *Machine) Release() {
	m.flushObs()
	m.obsSink = nil
	if m.Mem != nil {
		m.clearDirty(m.dirtyLo, m.dirtyHi)
		m.clearDirty(m.dirtyStkLo, m.dirtyStkHi)
		memPool.Put(m.Mem)
	}
	m.Mem = nil
}

// New builds a machine for mod. The module is laid out on first use.
func New(mod *ir.Module, cfg Config) *Machine {
	if cfg.MemWords == 0 {
		cfg.MemWords = ir.DefaultMemWords
	}
	if cfg.StackWords == 0 {
		cfg.StackWords = ir.DefaultStackWords
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 1 << 32
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 1024
	}
	mod.Layout()
	if mod.DataEnd()+cfg.StackWords > cfg.MemWords {
		cfg.MemWords = mod.DataEnd() + cfg.StackWords + 1024
	}
	m := &Machine{Mod: mod, Cfg: cfg, regions: map[int]*RegionMeta{}}
	if cfg.Obs != nil {
		m.AttachObs(cfg.Obs)
	}
	m.Reset()
	return m
}

// SetRuntime registers instrumented-region metadata so the checkpoint
// pseudo-ops can find their recovery blocks.
func (m *Machine) SetRuntime(metas []RegionMeta) {
	m.regions = make(map[int]*RegionMeta, len(metas))
	for i := range metas {
		m.regions[metas[i].ID] = &metas[i]
	}
}

// Reset reinitializes memory (reloading global initializers), counters,
// profile, and fault state, allowing a fresh Run.
//
// Memory is re-zeroed by dirty range: the interpreter tracks the
// inclusive address range written since the last Reset (stores, restores,
// fault injections) and only that range is cleared, so reset cost scales
// with the run's memory footprint rather than Cfg.MemWords — which New
// may have auto-grown far beyond the workload's needs.
func (m *Machine) Reset() {
	m.lastResetWords = m.rewind(&Snapshot{})
	for _, g := range m.Mod.Globals {
		// Initializer words count as dirty: Release and the next Reset
		// must re-zero them even if the program never stores there.
		if n := int64(copy(m.Mem[g.Addr:g.Addr+g.Size], g.Init)); n > 0 {
			m.noteDirty(g.Addr)
			m.noteDirty(g.Addr + n - 1)
		}
	}
	if m.pBlocks != nil {
		clear(m.pBlocks)
		clear(m.pEdges)
	}
	if m.obsSink != nil {
		m.obsSink.resetWords.Observe(m.lastResetWords)
	}
	if m.Cfg.Profile {
		m.Prof = &Profile{Block: map[*ir.Block]int64{}, Edge: map[*ir.Block][]int64{}}
	}
}

// rewind ends the machine's current run for Reset (with an empty
// snapshot) and Restore: it folds the finished run's counters into the
// attached registry before they are overwritten, re-zeroes the memory
// the run dirtied, drops the frames and their region buffers, clears the
// fault, capture, resume and reconvergence state, and installs s's
// counters and output. The machine never dispatched the prefix behind s,
// so s's counters also bias the next flush. It returns how many memory
// words it cleared.
func (m *Machine) rewind(s *Snapshot) (words int64) {
	m.flushObs()
	if m.Mem == nil || int64(len(m.Mem)) != m.Cfg.MemWords {
		m.Mem = grabMem(m.Cfg.MemWords)
	} else {
		words = m.clearDirty(m.dirtyLo, m.dirtyHi) + m.clearDirty(m.dirtyStkLo, m.dirtyStkHi)
	}
	m.stackBase = m.Cfg.MemWords - m.Cfg.StackWords
	m.dirtyLo, m.dirtyHi = int64(len(m.Mem)), -1
	m.dirtyStkLo, m.dirtyStkHi = int64(len(m.Mem)), -1
	for i := range m.frames {
		if rs := m.frames[i].region; rs != nil {
			m.freeRegion(rs)
			m.frames[i].region = nil
		}
	}
	m.frames = m.frames[:0]
	m.sp, m.stackTop = m.stackBase, m.Cfg.MemWords
	m.fault, m.capt, m.resumeReady, m.reconv = nil, nil, false, reconvState{}
	m.HandoffsToRef, m.HandoffsToFast = 0, 0
	m.Count, m.BaseCount = s.count, s.baseCount
	m.CkptRegBytes, m.CkptMemBytes = s.ckptRegBytes, s.ckptMemBytes
	m.RegionEntries, m.MaxBufferBytes = s.regionEntries, s.maxBufferBytes
	m.instanceSeq = s.instanceSeq
	m.obsBias.count, m.obsBias.base = s.count, s.baseCount
	m.obsBias.ckptReg, m.obsBias.ckptMem = s.ckptRegBytes, s.ckptMemBytes
	m.obsBias.regionEntries = s.regionEntries
	m.output = append(m.output[:0], s.output...)
	return words
}

// LastResetWords reports how many memory words the most recent Reset
// cleared — observability for the dirty-range reset optimization (a
// value far below Cfg.MemWords means the watermark is doing its job).
func (m *Machine) LastResetWords() int64 { return m.lastResetWords }

// Output returns the values emitted through the built-in "emit" extern.
func (m *Machine) Output() []int64 { return m.output }

// ReadGlobal copies the current contents of global g out of memory.
func (m *Machine) ReadGlobal(g *ir.Global) []int64 {
	out := make([]int64, g.Size)
	copy(out, m.Mem[g.Addr:g.Addr+g.Size])
	return out
}

// Checksum returns a FNV-style hash over the given global's memory plus
// the emitted output stream; used as the golden-run oracle.
func (m *Machine) Checksum(gs ...*ir.Global) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		h ^= uint64(v)
		h *= prime
	}
	for _, g := range gs {
		for _, v := range m.Mem[g.Addr : g.Addr+g.Size] {
			mix(v)
		}
	}
	for _, v := range m.output {
		mix(v)
	}
	return h
}

// Depth returns the current call-frame depth.
func (m *Machine) Depth() int { return len(m.frames) }

// PeekAddr computes the effective address of a load or store that is about
// to execute in the current frame, without side effects. Used by tracing
// hooks.
func (m *Machine) PeekAddr(in *ir.Instr) (int64, bool) {
	if len(m.frames) == 0 || (in.Op != ir.OpLoad && in.Op != ir.OpStore) {
		return 0, false
	}
	fr := &m.frames[len(m.frames)-1]
	if int(in.A) >= len(fr.regs) {
		return 0, false
	}
	return fr.regs[in.A] + in.Imm, true
}

func (m *Machine) trap(err error, format string, args ...any) error {
	return fmt.Errorf("%w: %s", err, fmt.Sprintf(format, args...))
}
