package interp

import (
	"testing"

	"encore/internal/ir"
)

// buildStoreKernel assembles a tiny program with initialized global data,
// a global store, and a frame-slot store — dirtying a few words in both
// the data and stack segments of an otherwise untouched memory image.
func buildStoreKernel() (*ir.Module, *ir.Global) {
	m := ir.NewModule("reset")
	g := m.NewGlobal("buf", 64)
	g.Init = []int64{5, 6, 7}
	f := m.NewFunc("main", 0)
	off := f.Frame(1)
	b := f.NewBlock("entry")
	addr, fa, v := f.NewReg(), f.NewReg(), f.NewReg()
	b.GlobalAddr(addr, g)
	b.Const(v, 41)
	b.Store(addr, 3, v)
	b.FrameAddr(fa, off)
	b.Store(fa, 0, v)
	b.Load(v, addr, 3)
	b.Ret(v)
	f.Recompute()
	return m, g
}

// TestResetDirtyRange verifies that Reset clears only the run's dirty
// footprint — not the whole (possibly huge) memory image — and that
// repeated Reset+Run cycles are deterministic, including when New had to
// auto-grow MemWords beyond the configured size.
func TestResetDirtyRange(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"explicit-large", Config{MemWords: 1 << 21}},
		// MemWords far below DataEnd+StackWords: New auto-grows the
		// image, the historical over-clear case (reset cost scaled with
		// the grown size, not the configured one).
		{"auto-grown", Config{MemWords: 32}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mod, g := buildStoreKernel()
			m := New(mod, c.cfg)
			ret1, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			count1, sum1 := m.Count, m.Checksum(g)

			m.Reset()
			if w := m.LastResetWords(); w <= 0 || w > 4096 {
				t.Fatalf("Reset cleared %d words of %d; want a small positive footprint",
					w, len(m.Mem))
			}

			ret2, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ret1 != ret2 || m.Count != count1 || m.Checksum(g) != sum1 {
				t.Fatalf("re-run after dirty reset diverged: ret %d→%d count %d→%d sum %#x→%#x",
					ret1, ret2, count1, m.Count, sum1, m.Checksum(g))
			}
		})
	}
}

// buildSpanKernel assembles a loop that stores i into buf[i] for
// i in [0, span): a kernel whose dirty memory footprint is directly
// controlled by span.
func buildSpanKernel(name string, words, span int64) (*ir.Module, *ir.Global) {
	m := ir.NewModule(name)
	g := m.NewGlobal("buf", words)
	g.Init = []int64{9}
	f := m.NewFunc("main", 0)
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	gB, i, bound, cond, a := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.GlobalAddr(gB, g)
	entry.Const(i, 0)
	entry.Jmp(head)
	head.Const(bound, span)
	head.Bin(ir.OpLt, cond, i, bound)
	head.Br(cond, body, exit)
	body.Add(a, gB, i)
	body.Store(a, 0, i)
	body.AddI(i, i, 1)
	body.Jmp(head)
	exit.Ret(i)
	f.Recompute()
	return m, g
}

// TestPooledReuseShrinkingFootprint covers the hazard the dirty-range
// optimization introduces: a pooled image previously dirtied by a
// large-footprint run is handed to a machine whose own run touches far
// less memory. If Release under-clears (or the watermark carries over),
// the second machine sees the first run's residue beyond its own
// footprint. The config uses a size no other test shares so the pool
// can only hand back this test's images.
func TestPooledReuseShrinkingFootprint(t *testing.T) {
	cfg := Config{MemWords: 1<<18 + 768}
	big, _ := buildSpanKernel("big", 4096, 4000)
	small, sg := buildSpanKernel("small", 8, 3)

	// Golden small-kernel result on a guaranteed-fresh image size.
	gm := New(small, Config{MemWords: 1<<18 + 776})
	goldenRet, err := gm.Run()
	if err != nil {
		t.Fatal(err)
	}
	goldenCount, goldenSum := gm.Count, gm.Checksum(sg)

	a := New(big, cfg)
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	bigWords := a.LastResetWords()
	if bigWords < 4000 {
		t.Fatalf("big kernel reset only %d words; the footprint should span its 4000 stores", bigWords)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	img := a.Mem
	a.Release()

	b := New(small, cfg)
	reused := len(b.Mem) == len(img) && &b.Mem[0] == &img[0]
	for addr, w := range b.Mem {
		want := int64(0)
		if int64(addr) == sg.Addr {
			want = 9 // the small module's only initializer
		}
		if w != want {
			t.Fatalf("residue at word %d after shrinking reuse: got %d, want %d (image reused: %v)",
				addr, w, want, reused)
		}
	}
	ret, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != goldenRet || b.Count != goldenCount || b.Checksum(sg) != goldenSum {
		t.Fatalf("small run on recycled image diverged: ret %d→%d count %d→%d sum %#x→%#x",
			goldenRet, ret, goldenCount, b.Count, goldenSum, b.Checksum(sg))
	}
	b.Reset()
	if w := b.LastResetWords(); w >= bigWords || w <= 0 || w > 256 {
		t.Fatalf("shrunken footprint reset %d words (previous tenant: %d); the watermark must track the current run only",
			w, bigWords)
	}
	if !reused {
		t.Log("memory pool returned a fresh image; residue check exercised allocation path only")
	}
}

// TestReleasePoolZeroed verifies the pooled-image invariant: Release
// zeroes the dirty ranges before pooling, so a machine built from a
// recycled image starts with memory that is zero everywhere except its
// own global initializers.
func TestReleasePoolZeroed(t *testing.T) {
	mod, g := buildStoreKernel()
	cfg := Config{MemWords: 1<<18 + 512}
	a := New(mod, cfg)
	ret1, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	count1, sum1 := a.Count, a.Checksum(g)
	a.Release()

	b := New(mod, cfg)
	init := map[int64]int64{}
	for _, gg := range mod.Globals {
		for i, v := range gg.Init {
			init[gg.Addr+int64(i)] = v
		}
	}
	for addr, w := range b.Mem {
		if want := init[int64(addr)]; w != want {
			t.Fatalf("recycled image dirty at word %d: got %d, want %d", addr, w, want)
		}
	}
	ret2, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret2 != ret1 || b.Count != count1 || b.Checksum(g) != sum1 {
		t.Fatalf("run on recycled image diverged")
	}
}
