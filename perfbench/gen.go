package main

import (
	"fmt"

	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/progen"
)

// opKind classifies one generated operation.
type opKind uint8

const (
	kindCampaign      opKind = iota // batch laddered SFI campaign
	kindMasking                     // raw-strike masking Monte Carlo
	kindServedDefault               // served named workload, default analysis knobs
	kindServedKnobs                 // served named workload, varied γ/budget
	kindServedInline                // served inline progen module
)

func (k opKind) String() string {
	return [...]string{"campaign", "masking", "served-default", "served-knobs", "served-inline"}[k]
}

// op is one closed-loop operation: every input the program receives for
// it is here, derived from the workload seed alone.
type op struct {
	Index  int
	Kind   opKind
	App    string // workload name, or the ledger label of an inline module
	Seed   uint64 // campaign or masking PRNG seed
	Dmax   int64
	Trials int

	Gamma, Budget float64 // kindServedKnobs only

	// Module and Outputs carry an inline module's IR text and output
	// global names (kindServedInline only); Params generated it.
	Module  string
	Outputs []string
	Params  progen.Params
}

// mixApp is one application of the benchmark mix with its trial count
// per operation. The counts scale inversely with the golden run's length
// (43 K to 890 K instructions) so that every operation costs about the
// same, which keeps op latency percentiles inside one cluster instead of
// on the boundary between two applications.
type mixApp struct {
	name                      string
	campaign, masking, served int
}

var mix = []mixApp{
	{"epic", 640, 280, 80},
	{"175.vpr", 240, 200, 30},
	{"300.twolf", 150, 80, 19},
	{"172.mgrid", 64, 40, 8},
	{"cjpeg", 64, 40, 8},
	{"g721encode", 44, 28, 6},
	{"rawcaudio", 32, 20, 4},
	{"164.gzip", 24, 18, 4},
}

var (
	dmaxes  = []int64{10, 100, 1000}
	gammas  = []float64{0.25, 0.5, 1, 2}
	budgets = []float64{0.1, 0.3, 0.5}
)

// inlineTrials is the trial count of an inline module campaign; its
// golden runs are under a few thousand instructions.
const inlineTrials = 32

// minInlineInstrs keeps generated modules long enough for a 16-rung
// checkpoint ladder, so no served campaign fails on a too-short program.
const minInlineInstrs = 64

// splitmix64 is the generator's PRNG.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// opGen yields a workload's operations in blocks. Each block is a seeded
// shuffle of a balanced multiset, so every block carries the same mix of
// applications, dmax values and request kinds whatever the seed; the seed
// picks the order, the campaign seeds, the knobs and the progen programs.
// Any run longer than a few blocks therefore does the same kind of work,
// which keeps rates comparable across seeds.
type opGen struct {
	workload string
	rng      splitmix64
	buf      []op
	n        int
}

func newOpGen(workload string, seed uint64) (*opGen, error) {
	salt := map[string]uint64{"campaign": 0xC0FFEE, "masking": 0x3A5C, "served": 0x5E4BED}[workload]
	if salt == 0 {
		return nil, fmt.Errorf("unknown workload %q (valid: campaign, masking, served)", workload)
	}
	return &opGen{workload: workload, rng: splitmix64(seed ^ salt)}, nil
}

// next returns the next operation of the stream.
func (g *opGen) next() op {
	if len(g.buf) == 0 {
		g.buf = g.block()
	}
	o := g.buf[0]
	g.buf = g.buf[1:]
	o.Index = g.n
	g.n++
	return o
}

// take returns the next n operations.
func (g *opGen) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func (g *opGen) block() []op {
	var b []op
	switch g.workload {
	case "campaign":
		// Every (app, dmax) pair once. An app's three ops run ½×, 1× and
		// 2× its trial count in a seeded order, so op cost spreads over a
		// 4× range. op_p90 then sits inside the cluster of the largest
		// ops, where a host slowdown on a tenth of the ops moves it about
		// as much as it moves the mean; with equal-cost ops those slowed
		// ops alone would set p90.
		for _, a := range mix {
			sizes := []int{a.campaign / 2, a.campaign, 2 * a.campaign}
			for i := len(sizes) - 1; i > 0; i-- {
				j := g.rng.intn(i + 1)
				sizes[i], sizes[j] = sizes[j], sizes[i]
			}
			for i, d := range dmaxes {
				b = append(b, op{Kind: kindCampaign, App: a.name, Dmax: d, Trials: sizes[i]})
			}
		}
	case "masking":
		for _, a := range mix {
			b = append(b, op{Kind: kindMasking, App: a.name, Trials: a.masking})
		}
	case "served":
		// Half default submissions (every app twice), a quarter with
		// varied γ/budget (every app once), a quarter inline modules.
		for _, a := range mix {
			for i := 0; i < 2; i++ {
				b = append(b, op{Kind: kindServedDefault, App: a.name, Dmax: 100, Trials: a.served})
			}
			b = append(b, op{Kind: kindServedKnobs, App: a.name, Trials: a.served})
		}
		for range mix {
			b = append(b, op{Kind: kindServedInline, Trials: inlineTrials})
		}
	}
	for i := len(b) - 1; i > 0; i-- {
		j := g.rng.intn(i + 1)
		b[i], b[j] = b[j], b[i]
	}
	for i := range b {
		o := &b[i]
		o.Seed = g.rng.next() >> 1
		switch o.Kind {
		case kindServedKnobs:
			o.Dmax = dmaxes[g.rng.intn(len(dmaxes))]
			o.Gamma = gammas[g.rng.intn(len(gammas))]
			o.Budget = budgets[g.rng.intn(len(budgets))]
		case kindServedInline:
			o.Dmax = dmaxes[g.rng.intn(len(dmaxes))]
			g.inline(o)
		}
	}
	return b
}

// inline fills o with a progen module printed as IR text. The printed
// form carries no global initializers, so the module is checked on
// zeroed inputs: candidates whose golden run is too short for the
// checkpoint ladder are skipped, deterministically.
func (g *opGen) inline(o *op) {
	for {
		p := progen.Params{
			Seed:         g.rng.next(),
			Depth:        2 + g.rng.intn(2),
			Stmts:        4 + g.rng.intn(4),
			Helpers:      g.rng.intn(3),
			Globals:      1 + g.rng.intn(3),
			GlobalWords:  16,
			FrameSlots:   int64(g.rng.intn(5)),
			LoopDensity:  3 + g.rng.intn(4),
			StoreDensity: 2 + g.rng.intn(5),
			AliasDensity: 1 + g.rng.intn(4),
			CallDensity:  g.rng.intn(5),
			BreakDensity: g.rng.intn(3),
		}
		text := progen.Generate(p).String()
		mod, err := ir.Parse(text)
		if err != nil {
			continue
		}
		m := interp.New(mod, interp.Config{})
		_, err = m.Run()
		n := m.Count
		m.Release()
		if err != nil || n < minInlineInstrs {
			continue
		}
		o.Params = p
		o.Module = text
		o.App = fmt.Sprintf("progen-%016x", p.Seed)
		for _, gl := range mod.Globals {
			o.Outputs = append(o.Outputs, gl.Name)
		}
		return
	}
}
