package interp

import (
	"testing"
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
	want := make(map[int64]int64, len(snap.data)+len(snap.stk))
	for i, v := range snap.data {
		want[snap.dataLo+int64(i)] = v
	}
	for i, v := range snap.stk {
		want[snap.stkLo+int64(i)] = v
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
