// Command e2ebench is the repository's end-to-end benchmark. It drives
// real pipserve backends (and, for one workload, a shard router) over
// loopback TCP with seeded synthetic-corpus requests, checks every answer
// against pip.Analyze, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a traced run (--trace 1). The last line of
// standard output is the result object; the line before it records the
// provenance of the run. See README.md for the workloads and metrics.
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
	"strconv"
	"strings"
	"time"

	"github.com/pip-analysis/pip/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	spec    spec
	seed    int64
	seconds int
	trace   bool
	workDir string // build outputs: store directories and the trace file
	shape   workload.Options
	// requests, when positive, replaces the workload's rate times
	// seconds as the timed request count (tests use tiny runs).
	requests int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold, hot, sweep or resolve")
	seed := fs.Int64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := fs.Int("seconds", 10, "run size: the workload sends its rate times this many requests")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workDir := fs.String("workdir", ".bench_build", "directory for store files and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specFor(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "e2ebench: need --workload cold|hot|sweep|resolve, --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg := config{spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: *workDir, shape: sp.shape}
	res, prov, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := printResult(stdout, prov, res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
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

// metricDef names a metric and its unit; the lists below are the order
// and units the benchmark prints, and BENCHMARK.json must list the same.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.client_ms_p50", "ms"},
	{"serve.decode_us_p50", "us"},
	{"serve.encode_us_p50", "us"},
	{"serve.queue_wait_ms_sum", "ms"},
	{"serve.rejected", "count"},
	{"serve.degraded", "count"},
	{"serve.unattributed_share", "ratio"},
	{"ir.parse_us_p50", "us"},
	{"ir.parse_us_p99", "us"},
	{"ir.parse_share", "ratio"},
	{"ir.parse_mb_s", "MB/s"},
	{"engine.hash_us_p50", "us"},
	{"engine.hash_share", "ratio"},
	{"engine.hit_us_p50", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.coalesced", "count"},
	{"core.gen_us_p50", "us"},
	{"core.gen_share", "ratio"},
	{"core.solve_us_p50", "us"},
	{"core.solve_us_p99", "us"},
	{"core.solve_share", "ratio"},
	{"core.offline_us_sum", "us"},
	{"core.propagate_us_sum", "us"},
	{"core.collapse_us_sum", "us"},
	{"core.firings", "count"},
	{"core.worklist_peak", "count"},
	{"incr.update_us_p50", "us"},
	{"incr.resumed_ratio", "ratio"},
	{"incr.fallback_ratio", "ratio"},
	{"incr.reused_ratio", "ratio"},
	{"incr.reused_constraints", "count"},
	{"router.hop_ms_p50", "ms"},
	{"router.hop_ms_p99", "ms"},
	{"router.rerouted", "count"},
	{"router.hedged", "count"},
	{"store.save_us_p50", "us"},
	{"store.saves", "count"},
	{"store.bytes", "B"},
	{"trace.overhead_ratio", "ratio"},
}

// provenance is printed before the result so results form a trajectory.
type provenance struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Trace      bool        `json:"trace"`
	Clients    int         `json:"clients"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	Corpus     corpusShape `json:"corpus"`
	Samples    int         `json:"latency_samples"`
	Counts     exactCounts `json:"exact_counts"`
	Setups     []float64   `json:"setup_s_each,omitempty"`
	TraceFile  string      `json:"trace_file,omitempty"`
	Problems   []string    `json:"problems,omitempty"`
}

type corpusShape struct {
	Modules      int     `json:"modules"`
	Instructions int     `json:"instructions"`
	MIRBytes     int     `json:"mir_bytes"`
	Requests     int     `json:"timed_requests"`
	WarmRequests int     `json:"warm_requests"`
	SizeScale    float64 `json:"size_scale"`
	MaxInstrs    int     `json:"max_instrs"`
}

func newProvenance(cfg config, in *inputs) provenance {
	return provenance{
		Workload:   cfg.spec.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Clients:    cfg.spec.clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Corpus: corpusShape{
			Modules:      in.modules,
			Instructions: in.instrs,
			MIRBytes:     in.bytes,
			Requests:     len(in.timed),
			WarmRequests: len(in.warm),
			SizeScale:    cfg.shape.SizeScale,
			MaxInstrs:    cfg.shape.MaxInstrs,
		},
		Samples: len(in.timed),
	}
}

// commit is the VCS revision the binary was built from, as the go
// toolchain stamped it; "unknown" when built outside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

func printResult(w io.Writer, prov provenance, res result) error {
	p, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", p, r)
	return err
}

// execute runs one invocation: the end-to-end run or the traced run.
func execute(cfg config, log io.Writer) (result, provenance, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, provenance{}, err
	}
	n := cfg.spec.rate * cfg.seconds
	if cfg.requests > 0 {
		n = cfg.requests
	}
	if cfg.trace {
		return perLayer(cfg, n, log)
	}
	return endToEnd(cfg, n, log)
}

// session is one set-up: generated inputs plus a warmed cluster.
type session struct {
	in       *inputs
	c        *cluster
	storeDir string
}

func (s *session) close() error {
	err := s.c.stop()
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
	}
	return err
}

// setUp generates the inputs (unless given), starts the cluster and
// sends the warm-up and fill requests, which must all answer 200.
func setUp(cfg config, n int, in *inputs, rec *recorder) (*session, error) {
	if in == nil {
		var err error
		if in, err = build(cfg.spec, cfg.seed, n, cfg.shape); err != nil {
			return nil, err
		}
	}
	s := &session{in: in}
	if cfg.spec.store {
		dir, err := os.MkdirTemp(cfg.workDir, "store-")
		if err != nil {
			return nil, err
		}
		s.storeDir = dir
	}
	c, err := startCluster(cfg.spec, s.storeDir, rec)
	if err != nil {
		if s.storeDir != "" {
			os.RemoveAll(s.storeDir)
		}
		return nil, err
	}
	s.c = c
	client := newClient()
	defer client.CloseIdleConnections()
	outs, _ := drive(client, c.target, in.warm, cfg.spec.clients, "w", nil)
	fill, _ := drive(client, c.target, in.fill, cfg.spec.clients, "f", nil)
	for i, o := range append(outs, fill...) {
		if o.err != nil || o.status != 200 {
			s.close()
			return nil, fmt.Errorf("warm-up request %d failed: status %d, %v", i, o.status, o.err)
		}
	}
	return s, nil
}

// window is one timed pass over the inputs.
type window struct {
	outs       []outcome
	elapsed    time.Duration
	before     counters
	after      counters
	storeBytes int64
}

func measure(s *session, clients int, rec *recorder) (*window, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	w := &window{}
	var err error
	if w.before, err = s.c.scrape(client); err != nil {
		return nil, err
	}
	bytes0 := s.c.storeBytes()
	// Start every window at the same point of the collector's cycle, as
	// testing.B does: otherwise the garbage of earlier set-ups decides
	// when the first collection inside the window runs.
	runtime.GC()
	w.outs, w.elapsed = drive(client, s.c.target, s.in.timed, clients, "t", rec)
	if w.after, err = s.c.scrape(client); err != nil {
		return nil, err
	}
	w.storeBytes = s.c.storeBytes() - bytes0
	return w, nil
}

// setUps is the number of complete set-ups an end-to-end run times;
// setup_s is their median.
const setUps = 3

// endToEnd is the untraced run: set up setUps times (the last set-up is
// kept), measure once, verify, report.
func endToEnd(cfg config, n int, log io.Writer) (result, provenance, error) {
	var s *session
	var setups []float64
	for k := 0; k < setUps; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return result{}, provenance{}, err
			}
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(cfg, n, nil, nil); err != nil {
			return result{}, provenance{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	w, err := measure(s, cfg.spec.clients, nil)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, provenance{}, err
	}
	rss := peakRSSMB()
	v := verifyWindow(cfg, s.in, w)
	prov := newProvenance(cfg, s.in)
	prov.Setups, prov.Counts, prov.Problems = setups, v.counts, v.problems
	ok := len(s.in.timed) - v.failed
	// Failed requests count as latency samples but not as answers.
	lat := make([]float64, len(w.outs))
	for i, o := range w.outs {
		lat[i] = float64(o.latency) / 1e6
	}
	res := result{
		Correct:   v.correct(),
		Attempted: len(s.in.timed),
		Failed:    v.failed,
		Metrics: map[string]metric{
			"throughput_rps": {float64(ok) / w.elapsed.Seconds(), "1/s"},
			"latency_p50_ms": {quantile(lat, 0.50), "ms"},
			"latency_p99_ms": {quantile(lat, 0.99), "ms"},
			"success_ratio":  {float64(ok) / float64(len(s.in.timed)), "ratio"},
			"setup_s":        {median(setups), "s"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}
	logProblems(log, prov.Problems)
	return res, prov, nil
}

// verified is the outcome of checking one window.
type verified struct {
	answers  []wireAnswer
	failed   int
	counts   exactCounts
	problems []string // request failures, then counter mismatches
}

func (v *verified) correct() bool { return v.failed == 0 && len(v.problems) == 0 }

func verifyWindow(cfg config, in *inputs, w *window) *verified {
	refs := references(in.refs, distinctRefs(in.timed))
	answers, problems := checkAnswers(cfg.spec, in.timed, w.outs, refs)
	v := &verified{answers: answers, counts: countsOf(len(in.timed), w.before, w.after)}
	for _, p := range problems {
		if p != "" {
			v.failed++
		}
	}
	v.problems = firstProblems(problems, 5)
	v.problems = append(v.problems, checkCounts(cfg.spec, in, v.counts, refs)...)
	return v
}

func logProblems(log io.Writer, problems []string) {
	for _, p := range problems {
		fmt.Fprintln(log, "e2ebench: FAIL:", p)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func traceFile(cfg config) string {
	return filepath.Join(cfg.workDir, "e2ebench-"+cfg.spec.name+".trace.json")
}
