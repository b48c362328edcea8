// Package workpool holds the worker-count policy and the shard
// dispatcher shared by every bounded fan-out in the tree: SFI trial
// pools (internal/sfi), the per-function compile fan-out
// (internal/core), the experiment harness's per-spec pool
// (internal/experiments), and the campaign daemon's trial scheduler
// (internal/serve). It sits below all of them so core can use it
// without importing sfi (whose tests import core).
//
// Two primitives live here. Clamp is the one worker-count normalizer
// every -workers flag and Workers config field degrades through, with
// FromEnv supplying the ENCORE_WORKERS override. Dispatch is the one
// scheduling loop: it partitions an index space into contiguous shards
// and feeds them to a fixed set of workers, with per-worker state
// leasing and cooperative cancellation at shard granularity. Because
// shards are contiguous and consumers collect results positionally,
// every Dispatch-based fan-out in the tree is bit-identical at any
// worker count and any shard size — the scheduling shape is a pure
// throughput knob.
package workpool

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
)

// Clamp normalizes a requested parallelism value: zero or negative selects
// runtime.GOMAXPROCS(0), a request above the item count is capped at it
// (extra workers would only idle), and the floor is one. Every worker-pool
// knob in the tree degrades through this helper, so a pathological request
// behaves exactly like the serial path instead of erroring or deadlocking.
func Clamp(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// FromEnv returns the ENCORE_WORKERS environment override as a worker
// count, or 0 when the variable is unset, malformed, or non-positive (the
// "no opinion" value every consumer feeds through Clamp).
func FromEnv() int {
	n, err := strconv.Atoi(os.Getenv("ENCORE_WORKERS"))
	if err != nil || n <= 0 {
		return 0
	}
	return n
}

// Shard is one contiguous index range [Lo, Hi) of a dispatched job space.
type Shard struct {
	// Lo is the first index of the shard.
	Lo int
	// Hi is one past the last index of the shard.
	Hi int
}

// Dispatch partitions the index space [0, n) into contiguous shards of at
// most size items (the last shard may be short; size <= 0 selects 1) and
// distributes them, in index order, across workers goroutines.
//
// body is invoked exactly once per worker goroutine with a pull function
// that yields shards until the space is exhausted or done is closed, so a
// worker can lease private state (an interpreter machine, a scratch
// buffer) once around its pull loop instead of per job. The worker count
// is normalized via Clamp against the shard count; a single worker runs
// body inline on the caller's goroutine with no goroutine or channel
// overhead. Dispatch returns when every worker has returned.
//
// A panic in a worker goroutine's body does not kill the process: pull
// stops handing out shards, the other workers finish the shards they
// hold, and Dispatch re-panics on the caller's goroutine with a
// *WorkerPanic carrying the first panic's value and the worker's stack,
// so a recover in the caller contains it.
//
// done, which may be nil, cancels cooperatively at shard granularity: a
// closed done channel stops pull from handing out further shards, while
// shards already pulled run to completion. Results collected positionally
// by shard index are identical for every (workers, size) pair — shard
// order is deterministic even though shard-to-worker assignment is not.
func Dispatch(n, size, workers int, done <-chan struct{}, body func(worker int, pull func() (Shard, bool))) {
	if n <= 0 {
		return
	}
	if size <= 0 {
		size = 1
	}
	nShards := (n + size - 1) / size
	var (
		next     atomic.Int64
		panicked atomic.Pointer[WorkerPanic] // the first worker panic
	)
	pull := func() (Shard, bool) {
		if panicked.Load() != nil {
			return Shard{}, false
		}
		if done != nil {
			select {
			case <-done:
				return Shard{}, false
			default:
			}
		}
		i := int(next.Add(1)) - 1
		if i >= nShards {
			return Shard{}, false
		}
		lo := i * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		return Shard{Lo: lo, Hi: hi}, true
	}
	if workers = Clamp(workers, nShards); workers == 1 {
		body(0, pull)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, &WorkerPanic{Value: v, Stack: debug.Stack()})
				}
			}()
			body(w, pull)
		}(w)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// WorkerPanic is the value Dispatch re-panics with on its caller's
// goroutine when a worker goroutine's body panicked.
type WorkerPanic struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the worker goroutine's stack at the panic.
	Stack []byte
}

// Error reports the worker's panic value and stack, so a caller that
// logs a recovered value, or the runtime's crash report, shows where the
// worker panicked rather than where Dispatch re-panicked.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}
