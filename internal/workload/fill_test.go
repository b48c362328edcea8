package workload

import (
	"runtime"
	"testing"
	"time"

	"encore/internal/ir"
)

// TestDroppedArtifactInputsCollected: the bookkeeping behind ReRandomize
// must not outlive its artifact. A dropped rawcaudio build's random pcm
// input — re-randomizable while the artifact lived — must become
// garbage, as its plain globals do.
func TestDroppedArtifactInputsCollected(t *testing.T) {
	sp, err := ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		art := sp.Build()
		var pcm *ir.Global
		for _, g := range art.Mod.Globals {
			if g.Name == "pcm" {
				pcm = g
			}
		}
		if pcm == nil {
			t.Fatal("rawcaudio has no pcm global")
		}
		if n := ReRandomize(art, 1); n == 0 {
			t.Fatal("rawcaudio reports no random inputs")
		}
		runtime.SetFinalizer(pcm, func(*ir.Global) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped artifact's random input global is still reachable")
}
