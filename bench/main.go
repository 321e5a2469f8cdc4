// Command bench is the repository's benchmark: five fixed-work
// workloads over the emulator, each reporting what a run costs the host
// and what the simulation produced, plus per-layer counters, probes and
// a traced repetition. See README.md in this directory.
//
// It is a module of its own (nocpu/bench) so that the linter's layering
// and determinism passes, which forbid host clocks and unregistered
// importers of nocpu/internal/..., do not see it, and so that nothing
// outside this directory has to change to build it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Run discipline, recorded in every result.
const (
	gogc        = 100
	defaultSeed = 11
	fullReps    = 7
)

// options selects how much a run measures.
type options struct {
	seed uint64
	// scale divides every workload's op count (1 = full work).
	scale int
	// minReps untraced repetitions always run; more follow until the
	// measured phases add up to seconds.
	minReps int
	seconds float64
	// traced adds the traced repetition and the probes, which produce
	// the per-layer metrics.
	traced       bool
	probeFor     time.Duration
	probeSamples int
	out          string
}

// value is one reported metric: the median of its samples, with the
// quartiles that say how far to trust it.
type value struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one workload produced.
type workloadResult struct {
	Name      string           `json:"name"`
	Ops       int              `json:"ops_per_rep"`
	Reps      int              `json:"reps"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Correct   bool             `json:"correct"`
	Errors    []string         `json:"errors,omitempty"`
	Digest    string           `json:"sim_digest"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Counters  counters         `json:"counters,omitempty"`
	Spans     []spanTotal      `json:"spans,omitempty"`
	RepLog    []*repResult     `json:"rep_log"`
	traced    *repResult
}

// resultFile is the self-describing record of one run of the benchmark.
type resultFile struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GOGC       int                    `json:"gogc"`
	Seed       uint64                 `json:"seed"`
	Scale      int                    `json:"scale"`
	Started    string                 `json:"started"`
	WallS      float64                `json:"wall_s"`
	Probes     map[string]probeResult `json:"probes,omitempty"`
	Workloads  []*workloadResult      `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and end with the driver's JSON line")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "with -workload: keep repeating until this much time was measured")
		trace   = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics from a traced repetition")
		full    = flag.Bool("full", false, "run all five workloads at full work, seven repetitions, traced run and probes")
		smoke   = flag.Bool("smoke", false, "run everything at 1/50 of the work, to check that it runs and is correct")
		out     = flag.String("out", "", "directory for the result file and the trace dumps")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		manif   = flag.Bool("manifest", false, "print BENCHMARK.json as the tables in this package define it")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs())
	debug.SetGCPercent(gogc)

	switch {
	case *manif:
		printManifest()
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		o := options{seed: *seed, scale: 1, minReps: 5, seconds: *seconds, out: *out}
		if *trace == 1 {
			// The traced repetition and the probes are the measurement;
			// two untraced repetitions give it something to compare to.
			o = options{seed: *seed, scale: 1, minReps: 2, traced: true,
				probeFor: 40 * time.Millisecond, probeSamples: 3, out: *out}
		}
		if !driverRun(w, o) {
			os.Exit(1)
		}
	case *full:
		o := options{seed: *seed, scale: 1, minReps: fullReps, traced: true,
			probeFor: 200 * time.Millisecond, probeSamples: 5, out: *out}
		if o.out == "" {
			o.out = "out"
		}
		if !runAll(o).ok() {
			os.Exit(1)
		}
	case *smoke:
		if !runAll(smokeOptions(*seed, *out)).ok() {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func smokeOptions(seed uint64, out string) options {
	return options{seed: seed, scale: 50, minReps: 2, traced: true,
		probeFor: 2 * time.Millisecond, probeSamples: 1, out: out}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// maxProcs is min(nproc, 2): one thread for the single load-generating
// goroutine, one for the collector.
func maxProcs() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// runRep runs one repetition on a fresh cell.
func runRep(w *workload, o options, rep int, traced bool) *repResult {
	debug.FreeOSMemory()
	res := &repResult{}
	e := &repEnv{seed: o.seed, ops: w.Ops / o.scale, res: res}
	if traced {
		e.tr = newTracer(rep)
		res.tr = e.tr
	}
	e.t0 = time.Now()
	w.run(e)
	return res
}

// runWorkload runs the untraced repetitions, then the traced one, and
// folds them into a result. probed holds the probe results the derived
// shares need; nil when o.traced is off.
func runWorkload(w *workload, o options, probed map[string]probeResult) *workloadResult {
	wr := &workloadResult{Name: w.Name, Ops: w.Ops / o.scale, Correct: true,
		EndToEnd: map[string]value{}}
	var reps []*repResult
	measured := 0.0
	for len(reps) < o.minReps || measured < o.seconds {
		r := runRep(w, o, len(reps), false)
		reps = append(reps, r)
		measured += r.WallS
		if len(r.errs) > 0 || r.WallS == 0 {
			break // a broken repetition will not get better by repeating
		}
	}
	all := reps
	if o.traced {
		wr.traced = runRep(w, o, len(reps), true)
		all = append(all[:len(all):len(all)], wr.traced)
	}
	wr.Reps, wr.RepLog = len(reps), reps

	// Correctness: every repetition passed its own checks, and all of
	// them, traced one included, agree on the simulated digest.
	wr.Digest = reps[0].Digest
	for i, r := range all {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for _, msg := range r.errs {
			wr.fail("rep %d: %s", i, msg)
		}
		if r.Digest != wr.Digest {
			wr.fail("rep %d: simulated digest %s differs from rep 0's %s", i, r.Digest, wr.Digest)
		}
	}
	if wr.Failed > 0 {
		wr.fail("%d of %d operations failed", wr.Failed, wr.Attempted)
	}

	samples := map[string][]float64{}
	for _, r := range reps {
		if r.WallS == 0 {
			wr.fail("a repetition ended before its measured phase")
			continue
		}
		for k, v := range r.sample() {
			samples[k] = append(samples[k], v)
		}
	}
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(samples[d.Name])
		wr.EndToEnd[d.Name] = value{Unit: d.Unit, Median: med, Q1: q1, Q3: q3, Samples: samples[d.Name]}
		if d.Exact && q1 != q3 {
			wr.fail("%s differs between repetitions of one seed: %v", d.Name, samples[d.Name])
		}
	}

	if o.traced {
		wr.Counters = wr.traced.delta
		wr.Spans = wr.traced.tr.totals()
		m := layerMetrics(wr.traced, wr.Spans, reps)
		for _, p := range probes {
			r := probed[p.Name]
			m[p.Name+"_ns"] = r.Ns
			if p.Allocs != "" {
				m[p.Allocs] = r.Allocs
			}
			if p.Bytes != "" {
				m[p.Bytes] = r.Bytes
			}
		}
		estShares(m, probed, wr.EndToEnd["cpu_us_per_op"].Median)
		wr.PerLayer = map[string]value{}
		for _, d := range perLayer {
			v, ok := m[d.Name]
			if !ok {
				wr.fail("per-layer metric %s was not produced", d.Name)
			}
			wr.PerLayer[d.Name] = value{Unit: d.Unit, Median: v, Q1: v, Q3: v}
		}
	}
	return wr
}

func (wr *workloadResult) fail(format string, args ...any) {
	wr.Correct = false
	if len(wr.Errors) < 16 {
		wr.Errors = append(wr.Errors, fmt.Sprintf(format, args...))
	}
}

// report writes every metric as "workload metric value unit" and, when
// dir is set, dumps the traced repetition there.
func (wr *workloadResult) report(dir string) {
	if dir != "" {
		if err := wr.dumpTrace(dir); err != nil {
			wr.fail("%v", err)
		}
	}
	for _, d := range endToEnd {
		v := wr.EndToEnd[d.Name]
		fmt.Printf("%s %s %.6g %s  (q1 %.6g q3 %.6g n %d)\n", wr.Name, d.Name, v.Median, v.Unit, v.Q1, v.Q3, len(v.Samples))
	}
	fmt.Printf("%s failed_ops %d count  (of %d attempted)\n", wr.Name, wr.Failed, wr.Attempted)
	fmt.Printf("%s sim_digest %s\n", wr.Name, wr.Digest)
	if wr.PerLayer != nil {
		for _, d := range perLayer {
			fmt.Printf("%s %s %.6g %s\n", wr.Name, d.Name, wr.PerLayer[d.Name].Median, d.Unit)
		}
	}
	for _, e := range wr.Errors {
		fmt.Printf("%s ERROR %s\n", wr.Name, e)
	}
}

func runProbes(o options) map[string]probeResult {
	out := map[string]probeResult{}
	for _, p := range probes {
		out[p.Name] = runProbe(p, o.probeFor, o.probeSamples)
	}
	return out
}

// driverRun is one run as the driver asks for it: one workload, and as
// the last line of standard output one JSON object.
func driverRun(w *workload, o options) bool {
	var probed map[string]probeResult
	if o.traced {
		probed = runProbes(o)
	}
	wr := runWorkload(w, o, probed)
	wr.report(o.out)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]metric{}}
	from := wr.EndToEnd
	if o.traced {
		from = wr.PerLayer
	}
	for k, v := range from {
		line.Metrics[k] = metric{v.Median, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
	return wr.Correct
}

func (rf *resultFile) ok() bool {
	for _, w := range rf.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// runAll runs every workload and the probes, prints every metric and,
// when o.out is set, writes the result file and the trace dumps.
func runAll(o options) *resultFile {
	start := time.Now()
	rf := &resultFile{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc, Seed: o.seed, Scale: o.scale,
		Started: start.UTC().Format(time.RFC3339),
	}
	fmt.Printf("bench: commit %s %s nproc %d GOMAXPROCS %d GOGC %d seed %d scale 1/%d\n",
		rf.Commit, rf.GoVersion, rf.NProc, rf.GOMAXPROCS, rf.GOGC, rf.Seed, rf.Scale)
	rf.Probes = runProbes(o)
	for i := range workloads {
		wr := runWorkload(&workloads[i], o, rf.Probes)
		wr.report(o.out)
		rf.Workloads = append(rf.Workloads, wr)
	}
	rf.WallS = time.Since(start).Seconds()
	if o.out != "" {
		path := filepath.Join(o.out, "BENCH_"+rf.Commit+".json")
		if err := writeJSON(path, rf); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("bench: wrote %s\n", path)
	}
	fmt.Printf("bench: %d workloads in %.1f s, correct=%v\n", len(rf.Workloads), rf.WallS, rf.ok())
	return rf
}

// traceDump is what the traced repetition leaves behind: the per-name
// totals, the counter snapshot, and the leading raw spans (a full run
// records a few hundred thousand; the totals cover all of them).
type traceDump struct {
	Workload string      `json:"workload"`
	Totals   []spanTotal `json:"totals"`
	Counters counters    `json:"counters"`
	Recorded int         `json:"spans_recorded"`
	Spans    []span      `json:"spans"`
}

const dumpedSpans = 4096

func (wr *workloadResult) dumpTrace(dir string) error {
	if wr.traced == nil {
		return nil
	}
	spans := wr.traced.tr.spans
	d := traceDump{Workload: wr.Name, Totals: wr.Spans, Counters: wr.Counters, Recorded: len(spans)}
	if len(spans) > dumpedSpans {
		spans = spans[:dumpedSpans]
	}
	d.Spans = spans
	return writeJSON(filepath.Join(dir, "trace_"+wr.Name+".json"), d)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit names the source the run measured: the git commit when the
// checkout has one, else "nogit" (the driver's checkouts are not
// repositories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	c := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		c += "-dirty"
	}
	return c
}

// printManifest writes BENCHMARK.json from the workload and metric
// tables, so the file at the root of the repository is never typed by
// hand; TestManifestMatchesCode fails when the two drift apart.
func printManifest() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer(d))
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
}
