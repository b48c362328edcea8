package interp

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"encore/internal/ir"
)

// This file implements checkpoint capture and fork-from-snapshot
// execution: a golden run records a ladder of full-fidelity machine
// snapshots in one pass (RunWithSnapshots), and later runs restore the
// nearest snapshot below their point of interest instead of re-executing
// the whole prefix (Restore + Resume). SFI campaigns use it to eliminate
// golden-prefix replay from every trial (internal/sfi).
//
// Snapshots capture machine state, which both engines keep in one form —
// memory as dirty-range deltas against the pristine zero image, the frame
// stack with its pc-form return points, counters, region buffers — so a
// snapshot restores onto a machine running either engine. Profiled
// machines can neither capture nor restore: a snapshot carries no
// profile.

// savedRegion is the frozen form of one frame's live checkpoint buffer.
// Region metadata is recorded by ID (not pointer) so a snapshot restores
// onto any machine registered with the same SetRuntime table.
type savedRegion struct {
	id         int // RegionMeta.ID, or -1 when the live buffer had no meta
	entries    []ckptEntry
	bytes      int64
	instance   int64
	frame      int
	entryCount int64
}

// savedFrame is the frozen form of one activation record.
type savedFrame struct {
	fn     *ir.Func
	regs   []int64
	fp     int64
	retPC  int32
	retDst int32
	region *savedRegion
}

// Snapshot is a full-fidelity capture of a quiescent machine mid-run:
// everything Restore needs to put an idle machine back into exactly this
// state, independent of which engine resumes it. Memory is stored as the
// dirty-range deltas against the pristine zero image (the same watermarks
// the dirty-range Reset uses), so snapshot size scales with the run's
// footprint at the capture point, not Cfg.MemWords; and a delta chunk
// the previous capture holds unchanged is shared, not copied, so a ladder
// stores words that no later code writes, such as input arrays, once.
type Snapshot struct {
	prog *Program // identity check: snapshots restore within one module

	memWords, stackWords int64
	pc                   int32

	count, baseCount           int64
	ckptRegBytes, ckptMemBytes int64
	regionEntries              int64
	maxBufferBytes             int64
	instanceSeq                int64
	sp                         int64

	// Dirty-range memory deltas of the data segment and the stack area.
	data, stk memDelta

	frames []savedFrame
	output []int64
}

// snapChunk is the word length of a memory-delta chunk, the unit a
// capture shares with the capture before it.
const snapChunk = 256

// memDelta is a snapshot's copy of one memory segment: lo/hi are the raw
// inclusive dirty watermarks at capture (hi < lo: untouched), and chunks
// hold Mem[lo:hi+1] cut at multiples of snapChunk, so chunk j starts at
// lo for j = 0 and at (lo/snapChunk+j)·snapChunk after. Chunks are never
// written after capture: a later capture may share them.
type memDelta struct {
	lo, hi int64
	chunks [][]int64
}

// capture copies mem[lo:hi+1] into d, sharing every chunk whose range
// and words equal a chunk of prev (the previous capture; may be nil).
// chunks is a reused backing array for the chunk list; chunk bodies are
// never reused, since another snapshot may share them.
func (d *memDelta) capture(mem []int64, lo, hi int64, prev *memDelta, chunks [][]int64) {
	*d = memDelta{lo: lo, hi: hi, chunks: chunks[:0]}
	for at := lo; at <= hi; {
		end := min((at/snapChunk+1)*snapChunk, hi+1)
		src := mem[at:end]
		if c := prev.chunkAt(at); c != nil && slices.Equal(c, src) {
			d.chunks = append(d.chunks, c)
		} else {
			d.chunks = append(d.chunks, slices.Clone(src))
		}
		at = end
	}
}

// chunkAt returns d's chunk that starts at address at, or nil.
func (d *memDelta) chunkAt(at int64) []int64 {
	if d == nil || at < d.lo || at > d.hi || at != d.lo && at%snapChunk != 0 {
		return nil
	}
	if j := at/snapChunk - d.lo/snapChunk; j < int64(len(d.chunks)) {
		return d.chunks[j]
	}
	return nil
}

// restore overlays d's words onto mem.
func (d *memDelta) restore(mem []int64) {
	at := d.lo
	for _, c := range d.chunks {
		at += int64(copy(mem[at:], c))
	}
}

// sameAs reports whether memory segment mem, dirtied over [lo, hi], holds
// exactly d's words. Words outside the machine's dirty range and outside
// d's span are zero in both, so the segments are equal iff d's span
// matches word for word and every word the machine dirtied beyond that
// span is zero. The tails are OR-reduced rather than tested word by
// word, keeping the compare branch-free per word.
func (d *memDelta) sameAs(mem []int64, lo, hi int64) bool {
	slo, shi := hi+1, hi+1 // d's span [slo, shi), empty by default
	if len(d.chunks) > 0 {
		slo, shi = d.lo, d.lo
		for _, c := range d.chunks {
			if !slices.Equal(mem[shi:shi+int64(len(c))], c) {
				return false
			}
			shi += int64(len(c))
		}
	}
	if hi < lo {
		return true
	}
	var acc int64
	for _, w := range mem[lo:max(lo, min(hi+1, slo))] {
		acc |= w
	}
	for _, w := range mem[min(hi+1, max(lo, shi)) : hi+1] {
		acc |= w
	}
	return acc == 0
}

// Count reports the dynamic instruction count at the capture point: the
// number of instructions already retired when execution resumes from this
// snapshot.
func (s *Snapshot) Count() int64 { return s.count }

// Ladder is an ascending sequence of snapshots captured on one golden
// run, plus the run's total dynamic length and return value.
type Ladder struct {
	snaps    []*Snapshot
	captures int
	total    int64
	ret      int64
}

// Len reports how many snapshots the ladder holds.
func (l *Ladder) Len() int {
	if l == nil {
		return 0
	}
	return len(l.snaps)
}

// Captures reports how many snapshots the capture pass took, including
// the ones RunLadder dropped as it thinned the ladder.
func (l *Ladder) Captures() int {
	if l == nil {
		return 0
	}
	return l.captures
}

// Snapshots returns the ladder's snapshots in ascending capture order.
// The returned slice is shared; callers must not mutate it.
func (l *Ladder) Snapshots() []*Snapshot {
	if l == nil {
		return nil
	}
	return l.snaps
}

// GoldenInstrs reports the capture run's total dynamic instruction count.
func (l *Ladder) GoldenInstrs() int64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Footprint reports the bytes the ladder's snapshots hold: each
// snapshot's fixed fields, chunk lists, frames, register files, region
// buffers and output, plus every memory chunk once, however many rungs
// share it. It reads capacities, which the capture pass fixes, so the
// same golden run always reports the same footprint. A nil ladder holds
// none.
func (l *Ladder) Footprint() int64 {
	if l == nil {
		return 0
	}
	const word = int64(unsafe.Sizeof(int64(0)))
	seen := map[*int64]bool{}
	var n int64
	for _, s := range l.snaps {
		n += int64(unsafe.Sizeof(*s)) + int64(cap(s.output))*word
		for _, d := range [...]*memDelta{&s.data, &s.stk} {
			n += int64(cap(d.chunks)) * int64(unsafe.Sizeof(d.chunks[:0]))
			for _, c := range d.chunks {
				if c = c[:cap(c)]; len(c) > 0 && !seen[&c[0]] {
					seen[&c[0]] = true
					n += int64(len(c)) * word
				}
			}
		}
		n += int64(cap(s.frames)) * int64(unsafe.Sizeof(savedFrame{}))
		for _, f := range s.frames {
			n += int64(cap(f.regs)) * word
			if r := f.region; r != nil {
				n += int64(unsafe.Sizeof(*r)) + int64(cap(r.entries))*int64(unsafe.Sizeof(ckptEntry{}))
			}
		}
	}
	return n
}

// Best returns the deepest snapshot that is strictly before injectAt —
// resuming from it retires instruction counts snap.Count()+1, ... so every
// fault event at or after injectAt (between-instruction strikes at
// InjectAt and post-instruction corruptions of the instruction retiring at
// InjectAt alike) still lies ahead. Returns nil (run from scratch) when
// the ladder is nil, empty, or every snapshot is at or past injectAt.
func (l *Ladder) Best(injectAt int64) *Snapshot {
	if l == nil {
		return nil
	}
	var best *Snapshot
	for _, s := range l.snaps {
		if s.count >= injectAt {
			break
		}
		best = s
	}
	return best
}

// LadderRungs returns k evenly spaced capture points for a run of the
// given total dynamic length: rung i sits at i·total/(k+1), so the rungs
// split the run into k+1 equal spans and the deepest rung leaves one span
// of real execution before the end. Degenerate rungs (non-positive, or
// colliding after integer division on tiny runs) are dropped, so a k
// at or above total yields a rung at every count in (0, total).
func LadderRungs(k int, total int64) []int64 {
	if k <= 0 || total <= 0 {
		return nil
	}
	if int64(k) >= total {
		k = int(total - 1) // same rung set, without the colliding ones
	}
	rungs := make([]int64, 0, k)
	for i := 1; i <= k; i++ {
		r := int64(i) * total / int64(k+1)
		if r <= 0 {
			continue
		}
		if n := len(rungs); n > 0 && rungs[n-1] == r {
			continue
		}
		rungs = append(rungs, r)
	}
	return rungs
}

// LadderFloor is the initial rung stride SFI campaigns pass to
// RunLadder: no rung sits below it, so a run of at most LadderFloor
// instructions gets an empty ladder, and the capture pass stays cheap
// relative to the run it rides on.
const LadderFloor = 4096

// capturePass is the schedule of an active capture pass. next is the
// dynamic count of the next capture, math.MaxInt64 once none is left.
// An explicit pass (RunWithSnapshots) takes its rungs from the pending
// list; a doubling pass (RunLadder, k > 0) places rung i at i·stride and
// thins the ladder whenever it holds 2k rungs, keeping the dropped
// snapshots in spare for later captures to reuse.
type capturePass struct {
	lad  *Ladder
	next int64

	rungs []int64 // explicit: pending rungs, ascending, next first

	k      int // doubling: target rung count
	stride int64
	spare  []*Snapshot
}

// RunWithSnapshots executes main from a fresh Reset, capturing a snapshot
// at each requested rung (dynamic instruction counts, deduplicated and
// sorted internally) in a single pass, and returns the run's result with
// the captured ladder. The capture pass always runs on the default
// engine, which delegates the segment reaching each rung to the
// reference loop; that loop freezes the machine at the rung's
// instruction boundary (one count past it when a two-count memory
// checkpoint straddles the rung) and hands back. Snapshots hold only
// engine-invariant state, so they restore onto machines using either
// engine. Hooks and profiled machines are rejected: a hook needs the
// reference loop throughout, and snapshots carry no profile.
func (m *Machine) RunWithSnapshots(rungs []int64) (int64, *Ladder, error) {
	norm := make([]int64, 0, len(rungs))
	for _, r := range rungs {
		if r > 0 {
			norm = append(norm, r)
		}
	}
	slices.Sort(norm)
	norm = slices.Compact(norm)
	c := &capturePass{next: math.MaxInt64, rungs: norm}
	if len(norm) > 0 {
		c.next = norm[0]
	}
	return m.runCapture(c)
}

// RunLadder executes main from a fresh Reset and captures a ladder of
// about k evenly spaced rungs in the same pass, without knowing the
// run's length in advance: it snapshots at every multiple of a stride
// that starts at floor, and whenever it holds 2k rungs it drops the odd
// multiples and doubles the stride. A run longer than k·floor
// instructions therefore ends with k to 2k−1 rungs at stride,
// 2·stride, … for one stride = floor·2^j (2k−1 at most for any length),
// and the machine's final state is the plain run's, so the pass doubles
// as the golden run. A dropped rung's buffers are reused by a later
// capture. Campaigns pass LadderFloor; a smaller floor gives short
// programs rungs too (progen's oracle uses 1). k ≤ 0 or floor ≤ 0
// captures nothing. The engine and rejection rules are
// RunWithSnapshots'.
func (m *Machine) RunLadder(k int, floor int64) (int64, *Ladder, error) {
	c := &capturePass{next: math.MaxInt64}
	if k > 0 && floor > 0 {
		c.k, c.stride, c.next = k, floor, floor
	}
	return m.runCapture(c)
}

// runCapture runs main from a fresh Reset under capture schedule c.
func (m *Machine) runCapture(c *capturePass) (int64, *Ladder, error) {
	if m.Cfg.Hook != nil {
		return 0, nil, fmt.Errorf("interp: capture passes do not support hooks")
	}
	if m.Cfg.Profile {
		return 0, nil, fmt.Errorf("interp: capture passes do not support profiled machines")
	}
	m.Reset()
	c.lad = &Ladder{}
	m.capt = c
	defer func() { m.capt = nil }()
	ret, err := m.Run()
	if err != nil {
		return 0, nil, err
	}
	c.lad.total, c.lad.ret = m.Count, ret
	return ret, c.lad, nil
}

// captureSnapshot freezes the machine at pc into the active ladder and
// advances the schedule past the count the run has reached. Called by
// the reference loop as it hands back, where the machine fields
// (counters, dirty watermarks) are authoritative.
func (m *Machine) captureSnapshot(pc int32) {
	c := m.capt
	var reuse *Snapshot
	if n := len(c.spare); n > 0 {
		reuse, c.spare = c.spare[n-1], c.spare[:n-1]
	}
	var prev *Snapshot
	if n := len(c.lad.snaps); n > 0 {
		prev = c.lad.snaps[n-1]
	}
	c.lad.snaps = append(c.lad.snaps, m.snapshot(pc, prev, reuse))
	c.lad.captures++
	if c.k == 0 {
		for len(c.rungs) > 0 && c.rungs[0] <= m.Count {
			c.rungs = c.rungs[1:]
		}
		c.next = math.MaxInt64
		if len(c.rungs) > 0 {
			c.next = c.rungs[0]
		}
		return
	}
	// Rung i (1-based) was captured at i·stride. At 2k rungs, keep the
	// even multiples: they are the rungs of the doubled stride.
	if snaps := c.lad.snaps; len(snaps) == 2*c.k {
		for i := range c.k {
			c.spare = append(c.spare, snaps[2*i])
			snaps[i] = snaps[2*i+1]
		}
		clear(snaps[c.k:])
		c.lad.snaps = snaps[:c.k]
		c.stride *= 2
	}
	c.next = int64(len(c.lad.snaps)+1) * c.stride
}

// snapshot deep-copies the machine's current state into s, reusing its
// buffers, or into a fresh Snapshot when s is nil. Memory chunks equal
// to prev's (the previous capture, may be nil) are shared.
func (m *Machine) snapshot(pc int32, prev, s *Snapshot) *Snapshot {
	if s == nil {
		s = new(Snapshot)
	}
	data, stk, output, frames := s.data.chunks, s.stk.chunks, s.output, s.frames
	*s = Snapshot{
		prog:           m.program(),
		memWords:       m.Cfg.MemWords,
		stackWords:     m.Cfg.StackWords,
		pc:             pc,
		count:          m.Count,
		baseCount:      m.BaseCount,
		ckptRegBytes:   m.CkptRegBytes,
		ckptMemBytes:   m.CkptMemBytes,
		regionEntries:  m.RegionEntries,
		maxBufferBytes: m.MaxBufferBytes,
		instanceSeq:    m.instanceSeq,
		sp:             m.sp,
		output:         refill(output, m.output),
	}
	var pdata, pstk *memDelta
	if prev != nil {
		pdata, pstk = &prev.data, &prev.stk
	}
	s.data.capture(m.Mem, m.dirtyLo, m.dirtyHi, pdata, data)
	s.stk.capture(m.Mem, m.dirtyStkLo, m.dirtyStkHi, pstk, stk)
	s.frames = slices.Grow(frames[:0], len(m.frames))[:len(m.frames)]
	for i := range m.frames {
		fr := &m.frames[i]
		sf := &s.frames[i]
		sf.fn = fr.fn
		sf.regs = refill(sf.regs, fr.regs)
		sf.fp = fr.fp
		sf.retPC, sf.retDst = fr.retPC, fr.retDst
		rs := fr.region
		if rs == nil {
			sf.region = nil
			continue
		}
		sr := sf.region
		if sr == nil {
			sr = new(savedRegion)
		}
		*sr = savedRegion{
			id:         -1,
			entries:    refill(sr.entries, rs.entries),
			bytes:      rs.bytes,
			instance:   rs.instance,
			frame:      rs.frame,
			entryCount: rs.entryCount,
		}
		if rs.meta != nil {
			sr.id = rs.meta.ID
		}
		sf.region = sr
	}
	return s
}

// refill returns a copy of src in buf's backing array when it fits, and
// in an exactly sized new one when it does not, so a rung captured into
// a dropped rung's buffers carries no append growth slack.
func refill[T any](buf, src []T) []T {
	if cap(buf) < len(src) {
		return slices.Clone(src)
	}
	return append(buf[:0], src...)
}

// Restore rewinds the machine to a snapshot's exact state: counters,
// frame stack, region buffers, output, and memory — the machine's
// current dirty ranges are re-zeroed (the Reset dirty-range machinery)
// and the snapshot's deltas overlaid, so restore cost scales with the
// two footprints rather than Cfg.MemWords. The snapshot must come from
// the same module, with matching memory geometry and region table, and
// the machine must be unprofiled. After a successful Restore the machine
// accepts InjectFault and must be continued with Resume (not Run, which
// would push a fresh main frame).
func (m *Machine) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("interp: Restore of a nil snapshot")
	}
	if s.prog.mod != m.Mod {
		return fmt.Errorf("interp: snapshot from a different module")
	}
	if m.Cfg.MemWords != s.memWords || m.Cfg.StackWords != s.stackWords {
		return fmt.Errorf("interp: snapshot memory geometry %d/%d does not match machine %d/%d",
			s.memWords, s.stackWords, m.Cfg.MemWords, m.Cfg.StackWords)
	}
	if m.Cfg.Profile {
		return fmt.Errorf("interp: Restore does not support profiled machines")
	}
	for i := range s.frames {
		if sr := s.frames[i].region; sr != nil && sr.id >= 0 {
			if m.regions[sr.id] == nil {
				return fmt.Errorf("interp: snapshot references region %d missing from the machine's runtime table", sr.id)
			}
		}
	}

	m.lastRestoreWords = m.rewind(s)
	s.data.restore(m.Mem)
	s.stk.restore(m.Mem)
	m.dirtyLo, m.dirtyHi = s.data.lo, s.data.hi
	m.dirtyStkLo, m.dirtyStkHi = s.stk.lo, s.stk.hi

	// Rebuild the snapshot's stack, reusing the backing array and register
	// slices just like newFrame does.
	for i := range s.frames {
		sf := &s.frames[i]
		var fr *frame
		if len(m.frames) < cap(m.frames) {
			m.frames = m.frames[:len(m.frames)+1]
			fr = &m.frames[len(m.frames)-1]
			if cap(fr.regs) >= len(sf.regs) {
				fr.regs = fr.regs[:len(sf.regs)]
			} else {
				fr.regs = make([]int64, len(sf.regs))
			}
		} else {
			m.frames = append(m.frames, frame{regs: make([]int64, len(sf.regs))})
			fr = &m.frames[len(m.frames)-1]
		}
		copy(fr.regs, sf.regs)
		fr.fn = sf.fn
		fr.fp = sf.fp
		fr.retPC, fr.retDst = sf.retPC, sf.retDst
		fr.region = nil
		if sr := sf.region; sr != nil {
			rs := m.allocRegion()
			rs.meta = nil
			if sr.id >= 0 {
				rs.meta = m.regions[sr.id]
			}
			rs.entries = append(rs.entries[:0], sr.entries...)
			rs.bytes = sr.bytes
			rs.instance = sr.instance
			rs.frame = sr.frame
			rs.entryCount = sr.entryCount
			fr.region = rs
		}
	}
	m.sp = s.sp
	if m.obsSink != nil {
		m.obsSink.restoreWords.Observe(m.lastRestoreWords)
	}
	m.resumePC, m.resumeReady = s.pc, true
	return nil
}

// LastRestoreWords reports how many memory words the most recent Restore
// cleared before overlaying the snapshot's deltas — observability for the
// dirty-range restore path (a value far below Cfg.MemWords means the
// watermarks are doing their job).
func (m *Machine) LastRestoreWords() int64 { return m.lastRestoreWords }

// Resume continues execution from the state installed by the last
// Restore, dispatching exactly as Call would: the reference loop for
// hooks/EngineRef/mid-fault machines, otherwise the default engine
// (which still pauses at a pending fault event and hands off). An
// InjectFault between Restore and Resume is the fork-from-snapshot trial
// pattern: the fault plan's InjectAt must lie beyond the snapshot's
// Count, which Ladder.Best guarantees.
func (m *Machine) Resume() (int64, error) {
	if !m.resumeReady {
		return 0, fmt.Errorf("interp: Resume without a preceding Restore")
	}
	m.resumeReady = false
	return m.enter(0, m.resumePC)
}

// rollbackCost is the dynamic cost between a rollback and the point at
// which the target region's entryCount was taken: xform's recovery block
// (restore, jump) and the header's re-arming SetRecovery. A layout with a
// different cost only makes reconvergence compares miss, never err.
const rollbackCost = 3

// reconvState is a trial's golden-state reconvergence check (see
// ArmReconverge). lad is the golden ladder, nil when the check is off.
// Once the fault settles, delta is the trial's dynamic-count offset from
// the golden run and next indexes the first rung whose stop,
// count+delta, still lies ahead. final is the projected end-of-run count
// after a match.
type reconvState struct {
	lad     *Ladder
	settled bool
	delta   int64
	next    int
	hit     bool
	final   int64
}

// ArmReconverge arms golden-state reconvergence for the run that
// follows: Resume after a Restore, or Run after a Reset (both disarm
// it). Once the armed fault settles — rolled back, ignored by a
// tolerant region, or injected with its detection past the budget — the
// run stops at count c+δ for each later rung c of the golden ladder l,
// with δ the trial's offset from the golden run fixed as it settles (0
// unless it rolled back), and compares its full state with the rung's
// snapshot. On a match the rest of the run is the golden suffix, so it
// ends there: the run returns the golden run's return value, and
// Reconverged reports the projected final count. The compare covers
// every input of later execution (see sameState), so a wrong δ costs a
// missed early exit, never a wrong result. A match whose projected end
// would pass Cfg.MaxInstrs is not taken: that run must reach its budget
// trap. The check needs the default engine's hand-backs, so runs pinned
// to the reference loop (EngineRef, a Hook) always run to the end, and
// it stays off for profiled machines and for a ladder that is empty or
// from another module or memory geometry.
func (m *Machine) ArmReconverge(l *Ladder) {
	m.reconv = reconvState{}
	if l.Len() == 0 || m.Cfg.Profile {
		return
	}
	if s := l.snaps[0]; s.prog.mod != m.Mod || s.memWords != m.Cfg.MemWords || s.stackWords != m.Cfg.StackWords {
		return
	}
	m.reconv.lad = l
}

// Reconverged reports whether the most recent run ended early at a
// golden rung (see ArmReconverge) and, if so, the dynamic instruction
// count at which the full run would have ended. The machine itself is
// left at the rung, mid-run: its Count, memory and output are not the
// final ones.
func (m *Machine) Reconverged() (final int64, ok bool) {
	return m.reconv.final, m.reconv.hit
}

// settleReconverge fixes an armed trial's offset from the golden run as
// its fault settles, skipping the rungs already behind it.
func (m *Machine) settleReconverge(delta int64) {
	r := &m.reconv
	if r.lad == nil {
		return
	}
	r.settled, r.delta = true, delta
	for r.next < len(r.lad.snaps) && r.lad.snaps[r.next].count+delta <= m.Count {
		r.next++
	}
}

// reconverged runs the compare for every rung stop the run has reached,
// with the machine parked at pc on the reference loop's hand-back, and
// reports whether one matched. A rung is compared once whether or not
// it matches; later rungs keep their compares.
func (m *Machine) reconverged(pc int32) bool {
	r := &m.reconv
	for r.next < len(r.lad.snaps) {
		s := r.lad.snaps[r.next]
		if s.count+r.delta > m.Count {
			return false
		}
		r.next++
		if final := m.Count + r.lad.total - s.count; final <= m.Cfg.MaxInstrs && m.sameState(s, pc) {
			r.hit, r.final = true, final
			return true
		}
	}
	return false
}

// sameState reports whether the machine, parked at pc, holds exactly the
// state s captured that later execution can read: pc, stack pointer,
// output stream, memory, and per frame its function, registers, frame
// pointer, return point (live below the top frame only) and region
// buffer. Left out are instanceSeq and each region's instance and
// entryCount, which only a future detection reads — and an armed fault
// has settled, so none is coming — plus the accounting counters, which
// feed metrics, not control flow.
func (m *Machine) sameState(s *Snapshot, pc int32) bool {
	if pc != s.pc || m.sp != s.sp || len(m.frames) != len(s.frames) || !slices.Equal(m.output, s.output) {
		return false
	}
	top := len(m.frames) - 1
	for i := range m.frames {
		fr, sf := &m.frames[i], &s.frames[i]
		if fr.fn != sf.fn || fr.fp != sf.fp || !slices.Equal(fr.regs, sf.regs) ||
			i < top && (fr.retPC != sf.retPC || fr.retDst != sf.retDst) ||
			!sameRegion(fr.region, sf.region) {
			return false
		}
	}
	return s.data.sameAs(m.Mem, m.dirtyLo, m.dirtyHi) &&
		s.stk.sameAs(m.Mem, m.dirtyStkLo, m.dirtyStkHi)
}

// sameRegion compares a live checkpoint buffer with a frozen one.
func sameRegion(rs *regionState, sr *savedRegion) bool {
	if rs == nil || sr == nil {
		return rs == nil && sr == nil
	}
	id := -1
	if rs.meta != nil {
		id = rs.meta.ID
	}
	return id == sr.id && rs.bytes == sr.bytes && rs.frame == sr.frame && slices.Equal(rs.entries, sr.entries)
}
