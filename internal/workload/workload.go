// Package workload provides the benchmark suite for the reproduction: 23
// IR kernels mirroring the SPEC2000-INT, SPEC2000-FP, and Mediabench
// applications the paper evaluates. Each kernel reimplements its
// benchmark's dominant computation with the same control-flow and
// memory-reference structure — WAR density, hot-path bias, loop nesting,
// rarely-executed initialization/error paths — which is what Encore's
// analyses actually measure. See DESIGN.md §2 for the substitution
// rationale.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"encore/internal/ir"
)

// Suite labels the benchmark family, mirroring the paper's three groups.
type Suite uint8

// Benchmark suites.
const (
	SpecInt Suite = iota
	SpecFP
	Media
)

// String names the suite as the paper's figures do.
func (s Suite) String() string {
	switch s {
	case SpecInt:
		return "SPEC2K-INT"
	case SpecFP:
		return "SPEC2K-FP"
	}
	return "MEDIABENCH"
}

// Artifact is one freshly built, runnable benchmark instance.
type Artifact struct {
	Mod *ir.Module
	// Outputs are the globals whose final contents define program output;
	// golden-run comparison checksums these plus the emit stream.
	Outputs []*ir.Global

	// fills records how each randomly initialized input global was drawn,
	// for ReRandomize. It lives and dies with the artifact.
	fills map[*ir.Global]fillSpec
}

// Spec describes one benchmark. Build returns a fresh module every call
// (instrumentation mutates modules in place).
type Spec struct {
	Name  string
	Suite Suite
	Build func() *Artifact
}

var registry []Spec

// register adds a benchmark whose Build moves the fill specs its
// builder recorded onto the artifact it returns.
func register(name string, suite Suite, build func() *Artifact) {
	registry = append(registry, Spec{Name: name, Suite: suite, Build: func() *Artifact {
		art := build()
		art.fills = takeFills(art.Mod)
		return art
	}})
}

// All returns every benchmark, grouped by suite in the paper's order.
func All() []Spec {
	out := append([]Spec(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Suite < out[j].Suite })
	return out
}

// BySuite returns the benchmarks of one suite.
func BySuite(s Suite) []Spec {
	var out []Spec
	for _, sp := range registry {
		if sp.Suite == s {
			out = append(out, sp)
		}
	}
	return out
}

// ByName returns the named benchmark.
func ByName(name string) (Spec, error) {
	for _, sp := range registry {
		if sp.Name == name {
			return sp, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names lists all benchmark names in suite order.
func Names() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return out
}

// splitmix64 is the deterministic PRNG used to synthesize benchmark
// inputs, so every Build call produces identical programs and data.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(s.next() % uint64(n))
}

// fillSpec remembers how a global's random initializer was produced, so
// ReRandomize can synthesize alternate inputs with the same distribution.
type fillSpec struct {
	seed    uint64
	bound   int64
	isFloat bool
}

// pendingFills holds the fill specs of builds in progress, keyed by
// global identity; register's Build wrapper moves a module's entries onto
// its Artifact as soon as the builder returns, so the map never outlives
// a build. Builds may run concurrently, hence the mutex.
var (
	pendingMu    sync.Mutex
	pendingFills = map[*ir.Global]fillSpec{}
)

// takeFills removes and returns the pending fill specs of mod's globals.
func takeFills(mod *ir.Module) map[*ir.Global]fillSpec {
	pendingMu.Lock()
	defer pendingMu.Unlock()
	fills := map[*ir.Global]fillSpec{}
	for _, g := range mod.Globals {
		if spec, ok := pendingFills[g]; ok {
			fills[g] = spec
			delete(pendingFills, g)
		}
	}
	return fills
}

// fillRand initializes a global with bounded pseudo-random words.
func fillRand(g *ir.Global, seed uint64, bound int64) {
	r := splitmix64(seed)
	g.Init = make([]int64, g.Size)
	for i := range g.Init {
		g.Init[i] = r.intn(bound)
	}
	pendingMu.Lock()
	pendingFills[g] = fillSpec{seed: seed, bound: bound}
	pendingMu.Unlock()
}

// fillRandF initializes a global with pseudo-random float bit patterns in
// [0, 1).
func fillRandF(g *ir.Global, seed uint64) {
	r := splitmix64(seed)
	g.Init = make([]int64, g.Size)
	for i := range g.Init {
		g.Init[i] = ir.FloatBits(float64(r.next()%1000000) / 1000000.0)
	}
	pendingMu.Lock()
	pendingFills[g] = fillSpec{seed: seed, isFloat: true}
	pendingMu.Unlock()
}

// ReRandomize replaces every randomly initialized input global of the
// artifact with a fresh draw from the same distribution (seed perturbed
// by variant). It is how experiments obtain a "ref" input different from
// the "train" input the profile ran on, exercising the statistical risk
// of profile-guided pruning (paper §3.4.1). Returns the number of globals
// re-randomized.
func ReRandomize(art *Artifact, variant uint64) int {
	n := 0
	for _, g := range art.Mod.Globals {
		spec, ok := art.fills[g]
		if !ok {
			continue
		}
		if spec.isFloat {
			r := splitmix64(spec.seed ^ (variant * 0x9e3779b97f4a7c15))
			for i := range g.Init {
				g.Init[i] = ir.FloatBits(float64(r.next()%1000000) / 1000000.0)
			}
		} else {
			r := splitmix64(spec.seed ^ (variant * 0x9e3779b97f4a7c15))
			for i := range g.Init {
				g.Init[i] = r.intn(spec.bound)
			}
		}
		n++
	}
	return n
}
