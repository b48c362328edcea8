// Command perfbench is the repository benchmark. It runs one named
// workload of fault-injection operations as a closed loop, drawing every
// input from a workload seed, checks the operations' outputs against an
// independent reference path, and prints its metrics:
//
//	perfbench --workload campaign|masking|served --seed n --seconds s --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics (setup_s,
// trials_per_s, op_p50_ms, op_p90_ms, peak_rss_mb) for --seconds of
// timed work. With --trace 1 it runs a fixed prefix of every workload's
// operations twice, untraced and traced, and reports per-layer metrics
// prefixed by workload, including the tracing overhead. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. NOTES.md records why each workload exists and how steady each
// metric is.
//
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"encore/internal/interp"
	"encore/internal/ir"
)

// processStart stands in for process start: the first set-up is timed
// from here.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRun is one executed op: its latency and the outputs the oracle checks.
type opRun struct {
	op     op
	lat    time.Duration
	trials int
	digest string // ledger SHA-256, or the masking tally
	bytes  int64  // ledger length
	err    error
}

// bench is one workload.
type bench interface {
	// setup builds, compiles, starts and warms what the timed ops need.
	setup() error
	// teardown stops what setup started and waits for it to end.
	teardown() error
	// epochOps is how many timed ops one set-up serves.
	epochOps() int
	// run executes the ops next yields in the workload's closed loop.
	run(next func() (op, bool), tr *tracer) []opRun
	// check re-derives one op's output on an independent path.
	check(r opRun) error
	// sideModule returns the program an op ran, for the interp side calls
	// of the traced run.
	sideModule(o op) (*ir.Module, []interp.RegionMeta, error)
}

// sequential is a workload whose single client runs one op at a time.
type sequential interface {
	runOne(o op, tr *tracer) opRun
}

func seqRun(s sequential, next func() (op, bool), tr *tracer) []opRun {
	var runs []opRun
	for o, ok := next(); ok; o, ok = next() {
		runs = append(runs, s.runOne(o, tr))
	}
	return runs
}

func (b *campaignBench) run(next func() (op, bool), tr *tracer) []opRun { return seqRun(b, next, tr) }
func (b *maskingBench) run(next func() (op, bool), tr *tracer) []opRun  { return seqRun(b, next, tr) }

func newBench(name string) (bench, error) {
	switch name {
	case "campaign":
		return newCampaignBench(), nil
	case "masking":
		return newMaskingBench(), nil
	case "served":
		return newServedBench(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: campaign, masking, served)", name)
}

// oracleLimit caps the ops the oracle re-derives per run.
const oracleLimit = 16

// tracedOps is the fixed op prefix the traced run covers per workload,
// so its counts repeat exactly for a seed.
var tracedOps = map[string]int{"campaign": 48, "masking": 24, "served": 96}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign, masking or served")
	seed := fs.Uint64("seed", 1, "workload seed: every op input derives from it")
	seconds := fs.Float64("seconds", 30, "timed-phase length of an end-to-end run (the traced run covers fixed op prefixes instead)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	out := fs.String("out", ".bench_build", "directory for the traced run's span dump")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if _, err := newOpGen(*name, *seed); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d: want 0 or 1\n", *trace)
		return 2
	}
	host := newHostRecord(*name, *seed, *trace == 1)
	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(*name, *seed, *seconds, stdout)
	} else {
		res, err = traced(*name, *seed, *out, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]hostRecord{"host": host}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// endToEnd sets the workload up, runs its closed loop for seconds of
// timed work, reads peak RSS, then checks a sample of the ops.
func endToEnd(name string, seed uint64, seconds float64, log io.Writer) (result, error) {
	b, err := newBench(name)
	if err != nil {
		return result{}, err
	}
	gen, err := newOpGen(name, seed)
	if err != nil {
		return result{}, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	var (
		setups, rss []float64
		runs        []opRun
		wall        time.Duration
	)
	for wall < budget {
		t0 := time.Now()
		if len(setups) == 0 {
			t0 = processStart
		}
		if err := resetPeakRSS(); err != nil {
			return result{}, err
		}
		if err := b.setup(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		start, n := time.Now(), 0
		runs = append(runs, b.run(func() (op, bool) {
			if wall+time.Since(start) >= budget || n == b.epochOps() {
				return op{}, false
			}
			n++
			return gen.next(), true
		}, nil)...)
		wall += time.Since(start)
		peak, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		rss = append(rss, peak)
		if err := b.teardown(); err != nil {
			return result{}, err
		}
		// Start every epoch from a collected heap returned to the OS. sfi
		// keeps each campaign's machines, 8 MB of memory apiece, in a
		// sync.Pool until two collections pass, so the live heap, and
		// with it the collector's next goal, grows with the campaigns run
		// since the last collection; over a continuous run the heap never
		// stops growing. With fixed-size epochs, each epoch's peak RSS
		// depends on the ops in one epoch, not on the run's length or
		// speed.
		runtime.GC()
		debug.FreeOSMemory()
	}
	failed := verify(b, runs, seed, log)

	var trials int
	lats := make([]float64, len(runs))
	for i, r := range runs {
		lats[i] = ms(r.lat)
		trials += r.trials
	}
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"trials_per_s": {float64(trials) / wall.Seconds(), "trials/s"},
		"op_p50_ms":    {quantile(lats, 0.5), "ms"},
		"op_p90_ms":    {quantile(lats, 0.9), "ms"},
		"peak_rss_mb":  {median(rss), "MB"},
	}
	fmt.Fprintf(log, "%s seed %d: %d ops, %d trials in %.2f s timed; %d epochs, set-ups %.3f s, peak RSS %.0f MB\n",
		name, seed, len(runs), trials, wall.Seconds(), len(setups), setups, rss)
	fmt.Fprintf(log, "op latency ms: p10 %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f max %.1f (%d samples, %d beyond p90)\n",
		quantile(lats, 0.1), quantile(lats, 0.25), quantile(lats, 0.5), quantile(lats, 0.75),
		quantile(lats, 0.9), quantile(lats, 1), len(lats), len(lats)/10)
	printMetrics(log, m)
	return result{Correct: failed == 0, Attempted: len(runs), Failed: failed, Metrics: m}, nil
}

// verify counts failed ops: those that returned an error, and those in
// the oracle sample whose output differs from the reference path.
func verify(b bench, runs []opRun, seed uint64, log io.Writer) int {
	failed := 0
	for _, r := range runs {
		if r.err != nil {
			failed++
			fmt.Fprintf(log, "op %d (%s %s) failed: %v\n", r.op.Index, r.op.Kind, r.op.App, r.err)
		}
	}
	sample := oracleSample(runs, seed, oracleLimit)
	for _, i := range sample {
		if err := b.check(runs[i]); err != nil {
			failed++
			fmt.Fprintf(log, "op %d (%s %s) wrong: %v\n", runs[i].op.Index, runs[i].op.Kind, runs[i].op.App, err)
		}
	}
	fmt.Fprintf(log, "oracle: %d of %d ops re-derived on the reference engine without checkpoints\n", len(sample), len(runs))
	return failed
}

// traced runs every workload's traced pass and prefixes its per-layer
// metrics with the workload name. name only orders the passes: every
// traced run covers every layer.
func traced(name string, seed uint64, outDir string, log io.Writer) (result, error) {
	order := []string{name}
	for _, w := range []string{"campaign", "masking", "served"} {
		if w != name {
			order = append(order, w)
		}
	}
	res := result{Metrics: map[string]metric{}}
	for _, w := range order {
		m, attempted, failed, err := tracedWorkload(w, seed, outDir, log)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", w, err)
		}
		for k, v := range m {
			res.Metrics[w+"."+k] = v
		}
		res.Attempted += attempted
		res.Failed += failed
	}
	res.Correct = res.Failed == 0
	printMetrics(log, res.Metrics)
	return res, nil
}

// sideCall is one op's interp side calls on its program: a golden Run, a
// 16-rung RunWithSnapshots, and a Restore of every rung, deepest first.
type sideCall struct {
	golden   time.Duration
	instrs   int64
	capture  time.Duration
	restores []time.Duration
}

func sideCalls(mod *ir.Module, metas []interp.RegionMeta) (sideCall, error) {
	var s sideCall
	m := interp.New(mod, interp.Config{})
	defer m.Release()
	if metas != nil {
		m.SetRuntime(metas)
	}
	t0 := time.Now()
	if _, err := m.Run(); err != nil {
		return s, err
	}
	s.golden, s.instrs = time.Since(t0), m.Count
	t0 = time.Now()
	_, lad, err := m.RunWithSnapshots(interp.LadderRungs(checkpoints, s.instrs))
	if err != nil {
		return s, err
	}
	s.capture = time.Since(t0)
	snaps := lad.Snapshots()
	for i := len(snaps) - 1; i >= 0; i-- {
		t0 = time.Now()
		if err := m.Restore(snaps[i]); err != nil {
			return s, err
		}
		s.restores = append(s.restores, time.Since(t0))
	}
	return s, nil
}

// tracedWorkload runs one workload's fixed op prefix untraced and traced,
// then the side calls and the oracle, and derives its per-layer metrics.
func tracedWorkload(name string, seed uint64, outDir string, log io.Writer) (map[string]metric, int, int, error) {
	b, err := newBench(name)
	if err != nil {
		return nil, 0, 0, err
	}
	gen, err := newOpGen(name, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	ops := gen.take(tracedOps[name])
	tr := newTracer()
	if err := b.setup(); err != nil {
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	var plain, runs []opRun
	var overhead float64
	var before, after *counters
	if s, ok := b.(sequential); ok {
		// One P: sfi's per-campaign machine pool then always hands the
		// trial worker the machine that ran the golden prefix, whose
		// pending instruction count the first trial folds into the
		// registry. On two Ps the worker sometimes gets a fresh machine
		// instead, and the interp counters would not repeat exactly.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		// Alternate which twin runs first so slow host phases hit both.
		var plainLat, tracedLat time.Duration
		for i, o := range ops {
			var p, t opRun
			if i%2 == 0 {
				p, t = s.runOne(o, nil), s.runOne(o, tr)
			} else {
				t, p = s.runOne(o, tr), s.runOne(o, nil)
			}
			plain, runs = append(plain, p), append(runs, t)
			plainLat += p.lat
			tracedLat += t.lat
		}
		overhead = (ms(tracedLat)/ms(plainLat) - 1) * 100
	} else {
		// served, the one concurrent workload, runs whole passes, each on
		// a fresh daemon: untraced, traced, untraced again, so a slow
		// host phase or a cold first pass weighs on both sides. The
		// overhead compares median op latency, which one slow op cannot
		// move.
		sb := b.(*servedBench)
		var p50s []float64
		for pass := 0; pass < 3; pass++ {
			if pass > 0 {
				if err := b.teardown(); err != nil {
					return nil, 0, 0, err
				}
				if err := b.setup(); err != nil {
					return nil, 0, 0, fmt.Errorf("set-up: %w", err)
				}
			}
			if pass == 1 {
				before = sb.counters()
				runs = b.run(listSource(ops), tr)
				after = sb.counters()
				continue
			}
			p := b.run(listSource(ops), nil)
			plain = append(plain, p...)
			p50s = append(p50s, latencyP50(p))
		}
		overhead = (latencyP50(runs)/((p50s[0]+p50s[1])/2) - 1) * 100
	}
	m := layersOf(b, runs, tr, before, after)
	if err := b.teardown(); err != nil {
		return nil, 0, 0, err
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}

	failed := verify(b, runs, seed, log)
	byIndex := map[int]string{}
	for _, r := range runs {
		byIndex[r.op.Index] = r.digest
	}
	for _, r := range plain {
		if r.err != nil {
			failed++
		} else if byIndex[r.op.Index] != r.digest {
			failed++
			fmt.Fprintf(log, "op %d: untraced output %.12s differs from the traced %.12s\n", r.op.Index, r.digest, byIndex[r.op.Index])
		}
	}

	side := make([]sideCall, len(runs))
	for i, r := range runs {
		mod, metas, err := b.sideModule(r.op)
		if err == nil {
			side[i], err = sideCalls(mod, metas)
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("side calls for op %d: %w", r.op.Index, err)
		}
	}
	for k, v := range sideMetrics(name, runs, side) {
		m[k] = v
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(log, "%s: %d traced ops, spans in %s\n", name, len(runs), path)
	return m, len(plain) + len(runs), failed, nil
}

// layersOf dispatches to the workload's own per-layer derivation.
func layersOf(b bench, runs []opRun, tr *tracer, before, after *counters) map[string]metric {
	switch b := b.(type) {
	case *campaignBench:
		return b.layers(runs, tr)
	case *maskingBench:
		return b.layers(runs, tr)
	case *servedBench:
		return b.layers(runs, before, after)
	}
	return nil
}

// sideMetrics reports the interp side calls that matter for the workload.
func sideMetrics(name string, runs []opRun, side []sideCall) map[string]metric {
	var mips, capture, restore, trialUS []float64
	for i, s := range side {
		mips = append(mips, float64(s.instrs)/s.golden.Seconds()/1e6)
		capture = append(capture, ms(s.capture))
		for _, d := range s.restores {
			restore = append(restore, us(d))
		}
		if r := runs[i]; r.trials > 0 {
			trialUS = append(trialUS, us(r.lat-s.golden)/float64(r.trials))
		}
	}
	switch name {
	case "campaign":
		return map[string]metric{
			"interp.dispatch_mips": {median(mips), "Minstr/s"},
			"interp.capture_ms":    {median(capture), "ms"},
			"interp.restore_us":    {median(restore), "us"},
		}
	case "masking":
		return map[string]metric{
			"interp.dispatch_mips": {median(mips), "Minstr/s"},
			"sfi.masking_trial_us": {median(trialUS), "us"},
		}
	}
	return map[string]metric{"interp.capture_ms": {median(capture), "ms"}}
}

func latencyP50(runs []opRun) float64 {
	lats := make([]float64, len(runs))
	for i, r := range runs {
		lats[i] = ms(r.lat)
	}
	return median(lats)
}

// listSource yields ops in order, then stops.
func listSource(ops []op) func() (op, bool) {
	i := 0
	return func() (op, bool) {
		if i == len(ops) {
			return op{}, false
		}
		i++
		return ops[i-1], true
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
