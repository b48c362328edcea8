// Package baseline implements the two conventional checkpoint-recovery
// schemes Encore is compared against in paper Table 1:
//
//   - Enterprise recovery: periodic full-system snapshots (the whole
//     memory image), hours-scale intervals, guaranteed recovery.
//   - Architectural recovery (SafetyNet/ReVive-style): an incremental
//     undo log of store old-values flushed at 100–500K-instruction
//     intervals, guaranteed recovery within the logged window.
//
// Both are implemented as working recovery engines over the interpreter —
// snapshots restore, logs unwind — so Table 1's attributes (interval
// length, storage, checkpoint time) are measured, not asserted.
//
// Both schemes observe execution through interp.Hook, which pins their
// runs to the per-instruction reference loop: Config.Engine is ignored
// for these measurements (the default engine has no per-instruction
// observation point by design).
package baseline

import (
	"encore/internal/interp"
	"encore/internal/ir"
)

// FullCheckpointer models enterprise-style recovery: every Interval
// dynamic instructions it snapshots the entire memory image (and nothing
// else — our machine keeps registers per frame; full-system schemes dump
// those too, a rounding error next to memory).
type FullCheckpointer struct {
	Interval int64

	// Measured:
	Checkpoints   int
	BytesPerCkpt  int64
	CopiedWords   int64 // total words copied (the checkpoint-time cost)
	LastCkptCount int64

	snapshot []int64
	snapAt   int64
	next     int64
}

// NewFullCheckpointer builds an enterprise checkpointer with the given
// interval in dynamic instructions.
func NewFullCheckpointer(interval int64) *FullCheckpointer {
	return &FullCheckpointer{Interval: interval, next: interval}
}

// OnInstr implements interp.Hook.
func (c *FullCheckpointer) OnInstr(m *interp.Machine, b *ir.Block, idx int) {
	if m.Count < c.next {
		return
	}
	c.next = m.Count + c.Interval
	if c.snapshot == nil {
		c.snapshot = make([]int64, len(m.Mem))
	}
	copy(c.snapshot, m.Mem)
	c.snapAt = m.Count
	c.Checkpoints++
	c.BytesPerCkpt = int64(len(m.Mem)) * 8
	c.CopiedWords += int64(len(m.Mem))
	c.LastCkptCount = m.Count
}

// Restore rolls the machine's memory back to the last snapshot and
// reports the instruction count it corresponds to (ok=false when no
// snapshot was taken yet).
func (c *FullCheckpointer) Restore(m *interp.Machine) (int64, bool) {
	if c.snapshot == nil {
		return 0, false
	}
	copy(m.Mem, c.snapshot)
	return c.snapAt, true
}

// undoEntry is one logged store: address and the value it overwrote.
type undoEntry struct {
	addr, old int64
}

// UndoLog models architectural recovery à la ReVive/SafetyNet: every
// store's old value is logged; the log is truncated (committed) every
// Interval instructions. Rollback unwinds the log to the last commit.
type UndoLog struct {
	Interval int64

	// Measured:
	Commits       int
	MaxLogBytes   int64
	TotalLogged   int64 // entries logged over the run (the logging cost)
	BytesAtCommit int64 // log size at the most recent commit

	log  []undoEntry
	next int64
}

// NewUndoLog builds an architectural checkpointer with the given commit
// interval in dynamic instructions.
func NewUndoLog(interval int64) *UndoLog {
	return &UndoLog{Interval: interval, next: interval}
}

// OnInstr implements interp.Hook: it intercepts stores about to execute
// and logs the old value, and commits the log on interval boundaries.
func (l *UndoLog) OnInstr(m *interp.Machine, b *ir.Block, idx int) {
	if m.Count >= l.next {
		l.next = m.Count + l.Interval
		l.Commits++
		l.BytesAtCommit = int64(len(l.log)) * 16 // 8B addr + 8B data
		if l.BytesAtCommit > l.MaxLogBytes {
			l.MaxLogBytes = l.BytesAtCommit
		}
		l.log = l.log[:0]
	}
	if idx >= len(b.Instrs) {
		return
	}
	in := &b.Instrs[idx]
	if in.Op != ir.OpStore {
		return
	}
	if addr, ok := m.PeekAddr(in); ok && addr >= 0 && addr < int64(len(m.Mem)) {
		l.log = append(l.log, undoEntry{addr: addr, old: m.Mem[addr]})
		l.TotalLogged++
	}
}

// Rollback unwinds every logged store since the last commit, restoring
// memory to the commit point, and returns how many entries it undid.
func (l *UndoLog) Rollback(m *interp.Machine) int {
	n := len(l.log)
	for i := n - 1; i >= 0; i-- {
		m.Mem[l.log[i].addr] = l.log[i].old
	}
	l.log = l.log[:0]
	return n
}

// SchemeReport is one row of Table 1, measured.
type SchemeReport struct {
	Name               string
	IntervalInstrs     int64
	StorageBytes       int64
	CkptTimeInstrs     int64 // modeled checkpoint cost in instruction-equivalents
	Scope              string
	GuaranteedRecovery bool
	ExtraHardware      string
}

// MeasureEnterprise runs mod under the full checkpointer and reports its
// Table 1 row. The interval is expressed in dynamic instructions.
func MeasureEnterprise(mod *ir.Module, interval int64) (*SchemeReport, error) {
	c := NewFullCheckpointer(interval)
	m := interp.New(mod, interp.Config{Hook: c})
	defer m.Release()
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	return &SchemeReport{
		Name:               "Enterprise (full snapshot)",
		IntervalInstrs:     interval,
		StorageBytes:       c.BytesPerCkpt,
		CkptTimeInstrs:     c.CopiedWords / int64(max(c.Checkpoints, 1)),
		Scope:              "Full system",
		GuaranteedRecovery: true,
		ExtraHardware:      "Sometimes",
	}, nil
}

// MeasureArchitectural runs mod under the undo log and reports its
// Table 1 row.
func MeasureArchitectural(mod *ir.Module, interval int64) (*SchemeReport, error) {
	l := NewUndoLog(interval)
	m := interp.New(mod, interp.Config{Hook: l})
	defer m.Release()
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	storage := l.MaxLogBytes
	if storage == 0 {
		storage = int64(len(l.log)) * 16
	}
	return &SchemeReport{
		Name:               "Architectural (undo log)",
		IntervalInstrs:     interval,
		StorageBytes:       storage,
		CkptTimeInstrs:     l.TotalLogged / int64(max(l.Commits, 1)),
		Scope:              "Processor",
		GuaranteedRecovery: true,
		ExtraHardware:      "Yes",
	}, nil
}
