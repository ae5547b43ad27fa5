package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/workload"
)

// tinyShape keeps test corpora to a few dozen small modules.
var tinyShape = workload.Options{Scale: 0.01, SizeScale: 0.02, MaxInstrs: 200, NoPathological: true}

func tinyConfig(t *testing.T, name string, trace bool) config {
	sp, err := specFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{spec: sp, seed: 3, seconds: 1, trace: trace, workDir: t.TempDir(),
		shape: tinyShape, requests: 48}
}

func bodies(in *inputs) [][]byte {
	var out [][]byte
	for _, list := range [][]request{in.warm, in.fill, in.timed} {
		for _, r := range list {
			out = append(out, r.body)
		}
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, sp := range specs {
		a, err := build(sp, 5, 40, tinyShape)
		if err != nil {
			t.Fatal(err)
		}
		b, err := build(sp, 5, 40, tinyShape)
		if err != nil {
			t.Fatal(err)
		}
		c, err := build(sp, 6, 40, tinyShape)
		if err != nil {
			t.Fatal(err)
		}
		ba, bb, bc := bodies(a), bodies(b), bodies(c)
		if len(ba) != len(bb) {
			t.Fatalf("%s: %d bodies, then %d", sp.name, len(ba), len(bb))
		}
		same := true
		for i := range ba {
			if !bytes.Equal(ba[i], bb[i]) {
				t.Fatalf("%s: body %d differs between two builds with one seed", sp.name, i)
			}
			same = same && i < len(bc) && bytes.Equal(ba[i], bc[i])
		}
		if same {
			t.Errorf("%s: seeds 5 and 6 gave identical requests", sp.name)
		}
	}
}

func TestResolveEditsResumeAndFallBack(t *testing.T) {
	sp, _ := specFor("resolve")
	in, err := build(sp, 2, 2*(resolveEdits+1), tinyShape)
	if err != nil {
		t.Fatal(err)
	}
	eng := pip.NewEngine(pip.BatchOptions{Cache: true})
	sessions := map[int]*pip.Session{}
	outcomes := map[string]int{}
	for _, r := range in.timed {
		m, err := pip.ParseIR(in.refs[r.ref].mir)
		if err != nil {
			t.Fatalf("lineage %d step %d: %v", r.lineage, r.step, err)
		}
		if sessions[r.lineage] == nil {
			sessions[r.lineage] = eng.NewSession(pip.MustParseConfig(resolveConfig))
		}
		res := sessions[r.lineage].Analyze(m)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		switch inc := res.Incremental; {
		case r.step == 0:
		case inc.ReusedSolution:
			outcomes["reused"]++
		case inc.Resumed:
			outcomes["resumed"]++
		default:
			outcomes["fallback"]++
		}
	}
	if outcomes["resumed"] == 0 || outcomes["fallback"] == 0 {
		t.Fatalf("edit outcomes %v: want both resumed and fallback", outcomes)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bj.Workloads[i].Name != sp.name || bj.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark has %q", i, bj.Workloads[i].Name, sp.name)
		}
	}
}

// checkPrinted runs one invocation and checks its result line.
func checkPrinted(t *testing.T, cfg config, want []metricDef) result {
	t.Helper()
	res, prov, err := execute(cfg, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printResult(&out, prov, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Fatalf("%s: result %+v, problems %v", cfg.spec.name, last, prov.Problems)
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, want %d", cfg.spec.name, len(last.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s printed as %+v, want unit %s", cfg.spec.name, d.name, m, d.unit)
		}
	}
	return last
}

func TestEndToEndRunsAreVerified(t *testing.T) {
	for _, name := range []string{"cold", "resolve"} {
		checkPrinted(t, tinyConfig(t, name, false), endToEndMetrics)
	}
}

func TestTracedRunWritesCheckedChromeTrace(t *testing.T) {
	for _, name := range []string{"hot", "sweep"} {
		cfg := tinyConfig(t, name, true)
		res := checkPrinted(t, cfg, perLayerMetrics)
		data, err := os.ReadFile(traceFile(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.CheckChrome(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, span := range []string{`"request"`, `"backend"`, `"parse"`, `"encode"`} {
			if !bytes.Contains(data, []byte(span)) {
				t.Errorf("%s: trace has no %s span", name, span)
			}
		}
		if name == "hot" && res.Metrics["engine.hit_us_p50"].Value <= 0 {
			t.Errorf("hot: no resident-hit replay")
		}
		if name == "sweep" && res.Metrics["core.solve_us_p50"].Value <= 0 {
			t.Errorf("sweep: no solve replay")
		}
	}
}

func TestHotCountsCheckedWhenHedged(t *testing.T) {
	sp, _ := specFor("hot")
	in, err := build(sp, 4, 100, tinyShape)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[int]*reference{}
	for _, i := range distinctRefs(in.timed) {
		refs[i] = &reference{firings: 10}
	}
	n := int64(len(in.timed))
	ok := exactCounts{Requests: n, Accepted: n + 3, Jobs: n + 3, CacheHits: n - 1, Firings: 30, Hedged: 3}
	if bad := checkCounts(sp, in, ok, refs); len(bad) > 0 {
		t.Fatalf("counts a hedged window can produce were refused: %v", bad)
	}
	for name, c := range map[string]exactCounts{
		"cache misses beyond the hedges": {Requests: n, Accepted: n + 3, Jobs: n + 3, CacheHits: n - 10, Firings: 30, Hedged: 3},
		"more firings than the hedges":   {Requests: n, Accepted: n + 3, Jobs: n + 3, CacheHits: n - 1, Firings: 31, Hedged: 3},
		"more admissions than hedges":    {Requests: n, Accepted: n + 4, Jobs: n + 3, CacheHits: n - 1, Firings: 30, Hedged: 3},
		"a recovered panic":              {Requests: n, Accepted: n + 3, Jobs: n + 3, CacheHits: n - 1, Firings: 30, Hedged: 3, Retries: 1},
	} {
		if bad := checkCounts(sp, in, c, refs); len(bad) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}
