package serve

import (
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
)

// FuzzParse drives tenant-supplied IR down the path a submitted inline
// module takes: ir.Parse (which verifies), a run on each engine, the
// compile pipeline, and a run of the instrumented module on each engine,
// all under a small instruction budget. Returned errors are expected; a
// panic is a crasher. The checked-in corpus holds hostileModules plus
// docs/API.md's inline example.
func FuzzParse(f *testing.F) {
	const budget = 1 << 16
	engines := []interp.Engine{interp.EngineRef, interp.EngineFast}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := ir.Parse(src)
		if err != nil {
			return
		}
		for _, e := range engines {
			m := interp.New(mod, interp.Config{MaxInstrs: budget, Engine: e})
			m.Run()
			m.Release()
		}
		cfg := core.DefaultConfig()
		cfg.Interp.MaxInstrs = budget
		cfg.Obs = obs.NewRegistry()
		res, err := core.Compile(mod, cfg)
		if err != nil {
			return
		}
		for _, e := range engines {
			m := interp.New(res.Mod, interp.Config{MaxInstrs: budget, Engine: e})
			m.SetRuntime(res.Metas)
			m.Run()
			m.Release()
		}
	})
}
