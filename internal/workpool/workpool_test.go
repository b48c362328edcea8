package workpool

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestClamp(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct{ workers, items, want int }{
		{0, 10, min(gmp, 10)},
		{-7, 100, min(gmp, 100)},
		{4, 10, 4},
		{20, 10, 10}, // more workers than items: capped
		{-3, 5, min(gmp, 5)},
		{3, 0, 1}, // no items: one worker floor
		{-1, 0, 1},
		{1000, 1, 1},
	}
	for _, c := range cases {
		got := Clamp(c.workers, c.items)
		if got < 1 {
			t.Fatalf("Clamp(%d, %d) = %d, below floor", c.workers, c.items, got)
		}
		if got != c.want {
			t.Fatalf("Clamp(%d, %d) = %d, want %d", c.workers, c.items, got, c.want)
		}
	}
}

// TestDispatchCoversEveryIndex checks that every index is dispatched
// exactly once, for several (workers, size) shapes including the inline
// single-worker path.
func TestDispatchCoversEveryIndex(t *testing.T) {
	const n = 257
	for _, workers := range []int{1, 2, 7} {
		for _, size := range []int{0, 1, 3, 64, 1000} {
			var hits [n]atomic.Int32
			Dispatch(n, size, workers, nil, func(_ int, pull func() (Shard, bool)) {
				for sh, ok := pull(); ok; sh, ok = pull() {
					if sh.Lo < 0 || sh.Hi > n || sh.Lo >= sh.Hi {
						t.Errorf("workers=%d size=%d: bad shard [%d,%d)", workers, size, sh.Lo, sh.Hi)
						return
					}
					for i := sh.Lo; i < sh.Hi; i++ {
						hits[i].Add(1)
					}
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d size=%d: index %d dispatched %d times", workers, size, i, got)
				}
			}
		}
	}
}

// TestDispatchHugeShard: a shard size near math.MaxInt is one shard of
// the whole space; computing the shard count must not overflow and
// schedule nothing.
func TestDispatchHugeShard(t *testing.T) {
	const n = 5
	var hits [n]atomic.Int32
	Dispatch(n, math.MaxInt, 2, nil, func(_ int, pull func() (Shard, bool)) {
		for sh, ok := pull(); ok; sh, ok = pull() {
			for i := sh.Lo; i < sh.Hi; i++ {
				hits[i].Add(1)
			}
		}
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d dispatched %d times, want 1", i, got)
		}
	}
}

// TestDispatchLeasesOncePerWorker checks body runs exactly once per
// worker goroutine (the per-worker state-leasing contract).
func TestDispatchLeasesOncePerWorker(t *testing.T) {
	var bodies atomic.Int32
	Dispatch(100, 5, 4, nil, func(_ int, pull func() (Shard, bool)) {
		bodies.Add(1)
		for _, ok := pull(); ok; _, ok = pull() {
		}
	})
	if got := bodies.Load(); got != 4 {
		t.Fatalf("body invoked %d times, want 4", got)
	}
}

// TestDispatchCancellation checks that closing done stops distribution at
// shard granularity: no new shards are handed out, and Dispatch still
// returns cleanly with some prefix of the work done.
func TestDispatchCancellation(t *testing.T) {
	done := make(chan struct{})
	var mu sync.Mutex
	dispatched := 0
	Dispatch(1000, 1, 2, done, func(_ int, pull func() (Shard, bool)) {
		for _, ok := pull(); ok; _, ok = pull() {
			mu.Lock()
			dispatched++
			if dispatched == 10 {
				close(done)
			}
			mu.Unlock()
		}
	})
	mu.Lock()
	defer mu.Unlock()
	// Both workers may have held one in-flight shard when done closed.
	if dispatched < 10 || dispatched > 12 {
		t.Fatalf("dispatched %d shards after cancel at 10, want 10..12", dispatched)
	}
}

// TestDispatchEmpty checks the degenerate spaces return immediately.
func TestDispatchEmpty(t *testing.T) {
	called := false
	Dispatch(0, 4, 4, nil, func(_ int, pull func() (Shard, bool)) { called = true })
	Dispatch(-5, 4, 4, nil, func(_ int, pull func() (Shard, bool)) { called = true })
	if called {
		t.Fatal("body invoked for an empty job space")
	}
}

// TestDispatchWorkerPanic checks that a panic in one of four workers'
// bodies reaches Dispatch's caller instead of killing the process: the
// other workers return before Dispatch re-panics, pull stops handing out
// shards, and the re-raised value carries the original value and the
// panicking worker's stack. A worker that pulls past shard 10 holds its
// shard until shard 10's body is panicking, so the others cannot drain
// the space while that worker waits for a processor; after the panic
// they race pull's stop flag alone, and n is far more shards than they
// could pull in any pause of the panicking worker.
func TestDispatchWorkerPanic(t *testing.T) {
	const n = 1 << 40
	var pulled, returned atomic.Int64
	panicking := make(chan struct{})
	got := func() (v any) {
		defer func() { v = recover() }()
		Dispatch(n, 1, 4, nil, func(_ int, pull func() (Shard, bool)) {
			for sh, ok := pull(); ok; sh, ok = pull() {
				pulled.Add(1)
				switch {
				case sh.Lo == 10:
					close(panicking)
					panic("shard 10")
				case sh.Lo > 10:
					<-panicking
				}
			}
			returned.Add(1)
		})
		return nil
	}()
	wp, ok := got.(*WorkerPanic)
	if !ok {
		t.Fatalf("Dispatch recovered %T %v, want *WorkerPanic", got, got)
	}
	if wp.Value != "shard 10" {
		t.Errorf("panic value %v, want %q", wp.Value, "shard 10")
	}
	if !strings.Contains(string(wp.Stack), "TestDispatchWorkerPanic") {
		t.Errorf("stack does not name the panicking body:\n%s", wp.Stack)
	}
	if !strings.Contains(wp.Error(), "shard 10") {
		t.Errorf("Error() = %q, want the panic value", wp.Error())
	}
	if r := returned.Load(); r != 3 {
		t.Errorf("%d workers returned before the re-panic, want 3", r)
	}
	if p := pulled.Load(); p >= n {
		t.Errorf("all %d shards handed out after the panic", p)
	}
}
