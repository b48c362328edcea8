package interp

import (
	"fmt"
	"slices"
	"testing"

	"encore/internal/ir"
)

// TestLadderRungs checks the spacing math: k rungs split a run of length
// total into k+1 equal spans, stay strictly inside (0, total), and
// collapse cleanly on degenerate inputs.
func TestLadderRungs(t *testing.T) {
	rungs := LadderRungs(16, 1700)
	if len(rungs) != 16 {
		t.Fatalf("LadderRungs(16, 1700) returned %d rungs: %v", len(rungs), rungs)
	}
	for i, r := range rungs {
		want := int64(i+1) * 1700 / 17
		if r != want {
			t.Errorf("rung %d = %d, want %d", i, r, want)
		}
		if r <= 0 || r >= 1700 {
			t.Errorf("rung %d = %d out of (0, total)", i, r)
		}
		if i > 0 && r <= rungs[i-1] {
			t.Errorf("rungs not strictly ascending at %d: %v", i, rungs)
		}
	}
	if got := LadderRungs(4, 3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("LadderRungs(4, 3) = %v, want [1 2] after dedup", got)
	}
	if got := LadderRungs(0, 100); got != nil {
		t.Errorf("LadderRungs(0, 100) = %v, want nil", got)
	}
	if got := LadderRungs(5, 0); got != nil {
		t.Errorf("LadderRungs(5, 0) = %v, want nil", got)
	}
}

// TestLadderBest checks the strict ordering contract: Best returns the
// deepest snapshot whose count is strictly below injectAt — a snapshot at
// count C has already retired instruction C, so a fault event at C must
// replay from an earlier snapshot.
func TestLadderBest(t *testing.T) {
	lad := &Ladder{snaps: []*Snapshot{{count: 10}, {count: 20}, {count: 30}}, total: 40}
	cases := []struct {
		injectAt int64
		want     int64 // expected snapshot count, -1 for nil
	}{
		{5, -1}, {10, -1}, {11, 10}, {20, 10}, {25, 20}, {30, 20}, {31, 30}, {1000, 30},
	}
	for _, c := range cases {
		got := lad.Best(c.injectAt)
		switch {
		case got == nil && c.want != -1:
			t.Errorf("Best(%d) = nil, want count %d", c.injectAt, c.want)
		case got != nil && got.count != c.want:
			t.Errorf("Best(%d) = count %d, want %d", c.injectAt, got.count, c.want)
		}
	}
	var nilLad *Ladder
	if nilLad.Best(100) != nil || nilLad.Snapshots() != nil || nilLad.Len() != 0 {
		t.Error("nil ladder must behave as empty")
	}
}

// TestRestoreClearsDirtyDelta is the dirty-delta unit for Restore: on a
// machine whose previous run dirtied a large footprint, Restore must
// clear exactly that footprint (not the whole image), overlay only the
// snapshot's recorded deltas, and leave every other word zero — after
// which Resume completes identically to a from-scratch run.
func TestRestoreClearsDirtyDelta(t *testing.T) {
	mod, g := buildSpanKernel("snapres", 4096, 3000)
	cfg := Config{MemWords: 1 << 20}

	capm := New(mod, cfg)
	goldenRet, err := capm.Run()
	if err != nil {
		t.Fatal(err)
	}
	total, goldenSum := capm.Count, capm.Checksum(g)
	ret, lad, err := capm.RunWithSnapshots([]int64{total / 2})
	if err != nil {
		t.Fatal(err)
	}
	if ret != goldenRet || lad.Len() != 1 || lad.GoldenInstrs() != total {
		t.Fatalf("capture pass diverged: ret %d/%d, %d snaps, total %d/%d",
			ret, goldenRet, lad.Len(), lad.GoldenInstrs(), total)
	}
	snap := lad.Snapshots()[0]
	if c := snap.Count(); c < total/2 || c > total/2+2 {
		t.Fatalf("snapshot at count %d, wanted rung %d", c, total/2)
	}

	m := New(mod, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The full run dirtied the whole 3000-word span; Restore must clear
	// it all, and nothing close to the 1M-word image.
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if w := m.LastRestoreWords(); w < 3000 || w > 8192 {
		t.Fatalf("Restore cleared %d words of %d; want the previous run's ~3000-word footprint",
			w, len(m.Mem))
	}

	// Memory must now be exactly the snapshot: delta values inside the
	// recorded ranges, zero everywhere else.
	want := map[int64]int64{}
	for _, d := range []memDelta{snap.data, snap.stk} {
		for i, v := range deltaWords(d) {
			want[d.lo+int64(i)] = v
		}
	}
	for addr, v := range m.Mem {
		if v != want[int64(addr)] {
			t.Fatalf("word %d after Restore: got %d, want %d", addr, v, want[int64(addr)])
		}
	}

	ret2, err := m.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if ret2 != goldenRet || m.Count != total || m.Checksum(g) != goldenSum {
		t.Fatalf("resume diverged from full run: ret %d/%d count %d/%d sum %#x/%#x",
			ret2, goldenRet, m.Count, total, m.Checksum(g), goldenSum)
	}
}

// TestRestoreValidation covers the rejection paths: nil snapshot, module
// mismatch, geometry mismatch, Resume sequencing, and profiled machines,
// which can neither capture nor restore.
func TestRestoreValidation(t *testing.T) {
	mod, _ := buildSpanKernel("snapval", 64, 16)
	capm := New(mod, Config{MemWords: 1 << 18})
	if _, err := capm.Run(); err != nil {
		t.Fatal(err)
	}
	_, lad, err := capm.RunWithSnapshots(LadderRungs(2, capm.Count))
	if err != nil {
		t.Fatal(err)
	}
	snap := lad.Snapshots()[lad.Len()-1]

	m := New(mod, Config{MemWords: 1 << 18})
	if err := m.Restore(nil); err == nil {
		t.Error("Restore(nil) must fail")
	}
	if _, err := m.Resume(); err == nil {
		t.Error("Resume without Restore must fail")
	}
	other, _ := buildSpanKernel("snapval2", 64, 16)
	om := New(other, Config{MemWords: 1 << 18})
	if err := om.Restore(snap); err == nil {
		t.Error("cross-module Restore must fail")
	}
	gm := New(mod, Config{MemWords: 1 << 19})
	if err := gm.Restore(snap); err == nil {
		t.Error("geometry-mismatch Restore must fail")
	}
	pm := New(mod, Config{MemWords: 1 << 18, Profile: true})
	if err := pm.Restore(snap); err == nil {
		t.Error("Restore on a profiled machine must fail")
	}
	if _, _, err := pm.RunWithSnapshots([]int64{4}); err == nil {
		t.Error("RunWithSnapshots on a profiled machine must fail")
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(); err == nil {
		t.Error("second Resume without a new Restore must fail")
	}
}

// TestRunLadderSchedule checks RunLadder's doubling schedule across its
// regimes — no rung (a run of at most LadderFloor instructions), fewer
// than k rungs before the first doubling, exactly one doubling, many
// doublings, and k = 1 — on a counting kernel of 7·span+7 instructions.
// The pass must end in exactly a plain Run's state; its rungs must sit
// at 1, 2, … times one power-of-two multiple of LadderFloor; a run
// longer than k·LadderFloor must end with k to 2k−1 rungs; and the
// capture count must be the rungs held plus k dropped per doubling.
func TestRunLadderSchedule(t *testing.T) {
	cases := []struct {
		k    int
		span int64
		want int // rungs held at the end
		dbl  int // doublings
	}{
		{k: 4, span: 500, want: 0, dbl: 0},     // 3 507 ≤ floor
		{k: 4, span: 1800, want: 3, dbl: 0},    // 12 607 < k·floor
		{k: 4, span: 2400, want: 4, dbl: 0},    // 16 807: k rungs, none dropped
		{k: 4, span: 6000, want: 5, dbl: 1},    // 42 007: one doubling at 32 768
		{k: 4, span: 100000, want: 5, dbl: 5},  // 700 007
		{k: 1, span: 100000, want: 1, dbl: 7},  // the deepest power-of-two rung
		{k: 16, span: 20000, want: 17, dbl: 1}, // 140 007
	}
	cfg := Config{MemWords: 1 << 18}
	for _, c := range cases {
		mod, g := buildSpanKernel("ladder", 8, c.span)
		plain := New(mod, cfg)
		wantRet, err := plain.Run()
		if err != nil {
			t.Fatal(err)
		}
		total := plain.Count

		m := New(mod, cfg)
		ret, lad, err := m.RunLadder(c.k, LadderFloor)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("k=%d total=%d", c.k, total)
		if ret != wantRet || m.Count != total || m.BaseCount != plain.BaseCount ||
			m.Checksum(g) != plain.Checksum(g) || !slices.Equal(m.Mem, plain.Mem) || !slices.Equal(m.Output(), plain.Output()) {
			t.Errorf("%s: pass end state differs from a plain Run: ret %d/%d count %d/%d", label, ret, wantRet, m.Count, total)
		}
		if lad.GoldenInstrs() != total {
			t.Errorf("%s: GoldenInstrs %d, want %d", label, lad.GoldenInstrs(), total)
		}

		n := lad.Len()
		if n != c.want {
			t.Errorf("%s: %d rungs, want %d", label, n, c.want)
		}
		if n > 2*c.k-1 || total > int64(c.k)*LadderFloor && n < c.k {
			t.Errorf("%s: %d rungs outside [k, 2k-1]", label, n)
		}
		stride := int64(LadderFloor) << c.dbl
		for i, s := range lad.Snapshots() {
			if want := int64(i+1) * stride; s.Count() != want {
				t.Errorf("%s: rung %d at count %d, want %d (stride %d)", label, i, s.Count(), want, stride)
			}
		}
		if n > 0 && total-lad.Snapshots()[n-1].Count() > stride {
			t.Errorf("%s: last rung %d leaves more than one stride of %d", label, lad.Snapshots()[n-1].Count(), stride)
		}
		if got, want := lad.Captures(), n+c.k*c.dbl; got != want {
			t.Errorf("%s: %d captures, want %d held + %d dropped", label, got, n, c.k*c.dbl)
		}
	}
	mod0, _ := buildSpanKernel("ladder0", 8, 1000)
	for _, kf := range [][2]int64{{0, LadderFloor}, {4, 0}} {
		if _, lad, err := New(mod0, cfg).RunLadder(int(kf[0]), kf[1]); err != nil || lad.Len() != 0 || lad.Captures() != 0 {
			t.Errorf("RunLadder(%d, %d) = %d rungs, %d captures, err %v; want an empty ladder",
				kf[0], kf[1], lad.Len(), lad.Captures(), err)
		}
	}
}

// buildRingKernel returns a module whose main calls work(buf, i) for
// i < span, and work stores i into buf[i&7]: a fixed eight-word data
// footprint, and a call depth of one or two at any capture point.
func buildRingKernel(span int64) *ir.Module {
	m := ir.NewModule("ring")
	g := m.NewGlobal("buf", 8)
	work := m.NewFunc("work", 2)
	we := work.NewBlock("entry")
	p, i := ir.Reg(0), ir.Reg(1) // the parameters
	k, a := work.NewReg(), work.NewReg()
	we.AndI(k, i, 7)
	we.Add(a, p, k)
	we.Store(a, 0, i)
	we.Ret(k)
	work.Recompute()

	f := m.NewFunc("main", 0)
	entry, head, body, exit := f.NewBlock("entry"), f.NewBlock("head"), f.NewBlock("body"), f.NewBlock("exit")
	gB, n, bound, cond, v := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.GlobalAddr(gB, g)
	entry.Const(n, 0)
	entry.Jmp(head)
	head.Const(bound, span)
	head.Bin(ir.OpLt, cond, n, bound)
	head.Br(cond, body, exit)
	body.Call(v, work, gB, n)
	body.AddI(n, n, 1)
	body.Jmp(head)
	exit.Ret(n)
	f.Recompute()
	return m
}

// TestRunLadderReusedBuffers checks that a rung captured into a dropped
// rung's buffers is indistinguishable from a fresh capture: every rung
// of a many-doubling RunLadder pass equals the snapshot RunWithSnapshots
// takes at the same count.
func TestRunLadderReusedBuffers(t *testing.T) {
	mod := buildRingKernel(30000)
	cfg := Config{MemWords: 1 << 18}
	_, lad, err := New(mod, cfg).RunLadder(3, 512)
	if err != nil {
		t.Fatal(err)
	}
	if lad.Captures() <= 2*3 {
		t.Fatalf("%d captures: the pass never reused a dropped rung", lad.Captures())
	}
	var counts []int64
	for _, s := range lad.Snapshots() {
		counts = append(counts, s.Count())
	}
	_, fresh, err := New(mod, cfg).RunWithSnapshots(counts)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != lad.Len() {
		t.Fatalf("fresh capture took %d rungs, ladder holds %d", fresh.Len(), lad.Len())
	}
	for i, s := range lad.Snapshots() {
		if !sameSnapshot(s, fresh.Snapshots()[i]) {
			t.Errorf("rung %d (count %d) differs from a fresh capture", i, s.Count())
		}
	}
}

// sameSnapshot compares two snapshots field by field, treating nil and
// empty slices alike.
func sameSnapshot(a, b *Snapshot) bool {
	if a.prog.mod != b.prog.mod || a.memWords != b.memWords || a.stackWords != b.stackWords || a.pc != b.pc ||
		a.count != b.count || a.baseCount != b.baseCount || a.ckptRegBytes != b.ckptRegBytes ||
		a.ckptMemBytes != b.ckptMemBytes || a.regionEntries != b.regionEntries ||
		a.maxBufferBytes != b.maxBufferBytes || a.instanceSeq != b.instanceSeq || a.sp != b.sp ||
		a.data.lo != b.data.lo || a.data.hi != b.data.hi || a.stk.lo != b.stk.lo || a.stk.hi != b.stk.hi ||
		!slices.Equal(deltaWords(a.data), deltaWords(b.data)) || !slices.Equal(deltaWords(a.stk), deltaWords(b.stk)) ||
		!slices.Equal(a.output, b.output) ||
		len(a.frames) != len(b.frames) {
		return false
	}
	for i := range a.frames {
		fa, fb := &a.frames[i], &b.frames[i]
		if fa.fn != fb.fn || fa.fp != fb.fp || fa.retPC != fb.retPC || fa.retDst != fb.retDst ||
			!slices.Equal(fa.regs, fb.regs) || (fa.region == nil) != (fb.region == nil) {
			return false
		}
		if ra, rb := fa.region, fb.region; ra != nil && (ra.id != rb.id || ra.bytes != rb.bytes ||
			ra.instance != rb.instance || ra.frame != rb.frame || ra.entryCount != rb.entryCount ||
			!slices.Equal(ra.entries, rb.entries)) {
			return false
		}
	}
	return true
}

// deltaWords returns a memory delta's words, d.lo first.
func deltaWords(d memDelta) []int64 { return slices.Concat(d.chunks...) }

// withWords returns a delta from d.lo holding words, in fresh chunks.
func withWords(d memDelta, words []int64) memDelta {
	mem := make([]int64, d.lo+int64(len(words)))
	copy(mem[d.lo:], words)
	var out memDelta
	out.capture(mem, d.lo, d.lo+int64(len(words))-1, nil, nil)
	return out
}

// TestSnapshotChunksShared checks that a capture shares the memory
// chunks the capture before it holds unchanged: on a kernel that fills a
// buffer front to back, every rung of the ladder holds the same copy of
// the buffer's finished head, the ladder stores fewer distinct chunks
// than it references, and every rung still restores into the plain run.
func TestSnapshotChunksShared(t *testing.T) {
	mod, g := buildSpanKernel("share", 1<<14, 1<<14)
	cfg := Config{MemWords: 1 << 18}
	plain := New(mod, cfg)
	wantRet, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, lad, err := New(mod, cfg).RunLadder(4, LadderFloor)
	if err != nil {
		t.Fatal(err)
	}
	if lad.Len() < 4 {
		t.Fatalf("%d rungs", lad.Len())
	}
	head := &lad.Snapshots()[0].data.chunks[0][0]
	distinct, refs := map[*int64]bool{}, 0
	for i, s := range lad.Snapshots() {
		if &s.data.chunks[0][0] != head {
			t.Errorf("rung %d holds its own copy of the buffer's finished head", i)
		}
		for _, c := range s.data.chunks {
			distinct[&c[0]] = true
			refs++
		}
	}
	if len(distinct) >= refs {
		t.Errorf("%d distinct chunks for %d chunk references: nothing shared", len(distinct), refs)
	}
	m := New(mod, cfg)
	for i, s := range lad.Snapshots() {
		if err := m.Restore(s); err != nil {
			t.Fatal(err)
		}
		ret, err := m.Resume()
		if err != nil || ret != wantRet || m.Count != plain.Count || m.Checksum(g) != plain.Checksum(g) ||
			!slices.Equal(m.Mem, plain.Mem) {
			t.Errorf("rung %d: resumed run differs from the plain run (ret %d/%d, err %v)", i, ret, wantRet, err)
		}
	}
}

// TestLadderFootprint checks that a ladder's footprint counts a memory
// chunk shared by two rungs once: a ladder of two snapshots sharing a
// chunk holds the footprints of the two one-rung ladders less that
// chunk's bytes. On a real pass the footprint is the same for the same
// golden run, and below the sum of the rungs' own footprints, since the
// rungs share the buffer's finished head.
func TestLadderFootprint(t *testing.T) {
	shared := make([]int64, snapChunk)
	s1 := &Snapshot{data: memDelta{lo: 0, hi: snapChunk - 1, chunks: [][]int64{shared}}}
	s2 := &Snapshot{data: memDelta{lo: 0, hi: 2*snapChunk - 1, chunks: [][]int64{shared, make([]int64, snapChunk)}}}
	rung := func(s *Snapshot) int64 { return (&Ladder{snaps: []*Snapshot{s}}).Footprint() }
	one, two := rung(s1), rung(s2)
	if both, want := (&Ladder{snaps: []*Snapshot{s1, s2}}).Footprint(), one+two-8*snapChunk; both != want {
		t.Errorf("two rungs sharing a chunk: footprint %d, want %d + %d − %d = %d", both, one, two, 8*snapChunk, want)
	}
	if n := (*Ladder)(nil).Footprint(); n != 0 {
		t.Errorf("nil ladder footprint %d", n)
	}

	mod, _ := buildSpanKernel("share", 1<<14, 1<<14)
	cfg := Config{MemWords: 1 << 18}
	pass := func() (footprint, rungs int64) {
		_, lad, err := New(mod, cfg).RunLadder(4, LadderFloor)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range lad.Snapshots() {
			rungs += rung(s)
		}
		return lad.Footprint(), rungs
	}
	f1, rungs := pass()
	if f2, _ := pass(); f2 != f1 {
		t.Errorf("the same golden run reports footprints %d and %d", f1, f2)
	}
	if f1 <= 0 || f1 >= rungs {
		t.Errorf("footprint %d, want in (0, %d): the rungs' own footprints, less the shared head", f1, rungs)
	}
}

// TestMemDeltaChunks pins memDelta's layout: chunks split at multiples
// of snapChunk from lo, chunkAt finds only a chunk's exact start, and a
// capture shares exactly the chunks whose range and words match.
func TestMemDeltaChunks(t *testing.T) {
	mem := make([]int64, 4*snapChunk)
	for i := range mem {
		mem[i] = int64(i)
	}
	lo, hi := int64(10), int64(2*snapChunk+20)
	var d memDelta
	d.capture(mem, lo, hi, nil, nil)
	if len(d.chunks) != 3 || len(d.chunks[0]) != snapChunk-10 || len(d.chunks[1]) != snapChunk || len(d.chunks[2]) != 21 ||
		!slices.Equal(deltaWords(d), mem[lo:hi+1]) {
		t.Fatalf("chunk lengths %d/%d/%d of %d chunks", len(d.chunks[0]), len(d.chunks[1]), len(d.chunks[2]), len(d.chunks))
	}
	for _, c := range []struct {
		at   int64
		want int // chunk index, -1 for nil
	}{{lo, 0}, {lo - 1, -1}, {lo + 1, -1}, {snapChunk, 1}, {snapChunk + 1, -1}, {2 * snapChunk, 2}, {3 * snapChunk, -1}} {
		got := d.chunkAt(c.at)
		if c.want < 0 && got != nil || c.want >= 0 && (got == nil || &got[0] != &d.chunks[c.want][0]) {
			t.Errorf("chunkAt(%d): want chunk %d", c.at, c.want)
		}
	}

	// Widened by a word at each end, the range moves both end chunks,
	// and the middle one has a changed word: nothing is shared. Over the
	// same range, the unchanged end chunks are.
	next := slices.Clone(mem)
	next[snapChunk+5] = -1
	var e memDelta
	e.capture(next, lo-1, hi+1, &d, nil)
	for j, c := range e.chunks {
		if &c[0] == &d.chunks[j][0] {
			t.Errorf("wider range: chunk %d shared", j)
		}
	}
	e.capture(next, lo, hi, &d, nil)
	if &e.chunks[0][0] != &d.chunks[0][0] || &e.chunks[1][0] == &d.chunks[1][0] || &e.chunks[2][0] != &d.chunks[2][0] {
		t.Error("same range: want chunks 0 and 2 shared and the changed chunk 1 copied")
	}
	if !slices.Equal(deltaWords(e), next[lo:hi+1]) {
		t.Error("shared capture lost words")
	}

	out := make([]int64, len(mem))
	e.restore(out)
	if !slices.Equal(out[lo:hi+1], next[lo:hi+1]) || out[lo-1] != 0 || out[hi+1] != 0 {
		t.Error("restore wrote the wrong words")
	}
	if !e.sameAs(out, lo, hi) || e.sameAs(mem, lo, hi) {
		t.Error("sameAs disagrees with the words")
	}
}
