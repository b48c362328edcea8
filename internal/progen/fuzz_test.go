package progen

import (
	"os"
	"path/filepath"
	"testing"
)

// addCorpus seeds f with the checked-in corpus under
// testdata/corpus/<FuzzTarget>: known-interesting program shapes (and
// regression inputs from past counterexamples), replayed even under the
// shortest -fuzztime budget and by plain `go test`.
func addCorpus(f *testing.F) {
	f.Helper()
	dir := filepath.Join("testdata", "corpus", f.Name())
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("seed corpus missing: %v", err)
	}
	if len(ents) == 0 {
		f.Fatalf("seed corpus empty: %s", dir)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzIdempotence drives the idempotence oracle: phantom-fault rollbacks
// over generated programs must leave final state identical to the
// fault-free run. A failure means the RS/GA/EA dataflow (Equations 1–4,
// loop meta-summaries included) classified a region unsoundly or placed
// its checkpoints wrong; the failing input's IR and generator parameters
// are printed for reproduction.
func FuzzIdempotence(f *testing.F) {
	addCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := CheckIdempotence(ParamsFromBytes(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRecovery drives the recovery oracle: every covered bit-flip must
// roll back to the struck region instance and restore byte-identical
// architectural state.
func FuzzRecovery(f *testing.F) {
	addCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := CheckRecovery(ParamsFromBytes(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzEngines drives the engine-equivalence oracle: the default
// (closure-compiled) engine and the reference loop must agree on every
// observable of both the plain and the instrumented program, and must
// trace identical fault trajectories through a sampled bit-flip sweep.
func FuzzEngines(f *testing.F) {
	addCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := CheckEngines(ParamsFromBytes(data)); err != nil {
			t.Fatal(err)
		}
	})
}
