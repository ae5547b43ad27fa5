package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/serve"
)

// wirePointsTo and wireAnswer mirror serve's response shapes (solve and
// resolve share one mirror; unused fields stay zero).
type wirePointsTo struct {
	Targets  []string `json:"targets"`
	External bool     `json:"external"`
	Error    string   `json:"error,omitempty"`
}

type wireIncremental struct {
	Generation      int    `json:"generation"`
	ReusedSolution  bool   `json:"reused_solution"`
	Resumed         bool   `json:"resumed"`
	FallbackReason  string `json:"fallback_reason,omitempty"`
	Added           int    `json:"added"`
	Removed         int    `json:"removed"`
	Reused          int    `json:"reused"`
	FullConstraints int    `json:"full_constraints"`
}

type wireAnswer struct {
	Name        string                  `json:"name,omitempty"`
	Handle      string                  `json:"handle,omitempty"`
	Config      string                  `json:"config"`
	Generation  int                     `json:"generation,omitempty"`
	Incremental *wireIncremental        `json:"incremental,omitempty"`
	Degraded    bool                    `json:"degraded"`
	CacheHit    bool                    `json:"cache_hit"`
	DiskHit     bool                    `json:"disk_hit,omitempty"`
	DurationNS  int64                   `json:"duration_ns"`
	PointsTo    map[string]wirePointsTo `json:"points_to,omitempty"`
	Escaped     []string                `json:"escaped"`
	Dump        string                  `json:"dump,omitempty"`
}

// reference is the library's answer for one refJob.
type reference struct {
	config   string
	pointsTo map[string]wirePointsTo
	escaped  []string
	firings  int64
	err      error
}

// references analyzes every listed ref with pip.Analyze, in parallel.
func references(refs []refJob, which []int) map[int]*reference {
	out := make(map[int]*reference, len(which))
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := analyzeRef(refs[i])
				mu.Lock()
				out[i] = r
				mu.Unlock()
			}
		}()
	}
	for _, i := range which {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

func analyzeRef(j refJob) *reference {
	cfg := pip.DefaultConfig()
	if j.config != "" {
		c, err := pip.ParseConfig(j.config)
		if err != nil {
			return &reference{err: err}
		}
		cfg = c
	}
	m, err := pip.ParseIR(j.mir)
	if err != nil {
		return &reference{err: fmt.Errorf("parse: %w", err)}
	}
	res, err := pip.Analyze(m, cfg)
	if err != nil {
		return &reference{err: fmt.Errorf("analyze: %w", err)}
	}
	ref := &reference{
		config:   cfg.String(),
		pointsTo: map[string]wirePointsTo{},
		escaped:  res.ExternallyAccessible(),
		firings:  res.Telemetry().Firings.Total(),
	}
	if ref.escaped == nil {
		ref.escaped = []string{}
	}
	for _, q := range j.queries {
		targets, external, err := res.PointsTo(q)
		if err != nil {
			ref.pointsTo[q] = wirePointsTo{Error: err.Error()}
			continue
		}
		if targets == nil {
			targets = []string{}
		}
		ref.pointsTo[q] = wirePointsTo{Targets: targets, External: external}
	}
	return ref
}

// checkAnswers verifies every outcome against its reference answer and
// the workload's expectations. It returns the decoded answers and one
// problem description per failed request (empty when it passed).
func checkAnswers(sp spec, reqs []request, outs []outcome, refs map[int]*reference) ([]wireAnswer, []string) {
	answers := make([]wireAnswer, len(reqs))
	problems := make([]string, len(reqs))
	for i, o := range outs {
		problems[i] = checkOne(sp, reqs[i], o, refs[reqs[i].ref], &answers[i])
	}
	return answers, problems
}

func checkOne(sp spec, r request, o outcome, ref *reference, a *wireAnswer) string {
	switch {
	case o.err != nil:
		return "transport: " + o.err.Error()
	case o.status != http.StatusOK:
		return fmt.Sprintf("status %d: %.200s", o.status, o.body)
	}
	if err := json.Unmarshal(o.body, a); err != nil {
		return "undecodable answer: " + err.Error()
	}
	switch {
	case ref == nil || ref.err != nil:
		return fmt.Sprintf("no reference answer: %v", ref)
	case a.Degraded:
		return "degraded answer"
	case a.Config != ref.config:
		return fmt.Sprintf("config %q, want %q", a.Config, ref.config)
	case !reflect.DeepEqual(a.Escaped, ref.escaped):
		return fmt.Sprintf("escaped set differs: %d names, want %d", len(a.Escaped), len(ref.escaped))
	case !reflect.DeepEqual(a.PointsTo, ref.pointsTo):
		return "points_to answers differ from pip.Analyze"
	}
	switch sp.name {
	case "cold", "sweep":
		if a.CacheHit {
			return "cache hit on a never-seen module"
		}
	case "resolve":
		if a.Handle == "" || a.Generation != r.step || a.Incremental == nil {
			return fmt.Sprintf("lineage step %d answered as generation %d", r.step, a.Generation)
		}
	}
	return ""
}

// firstProblems returns up to n distinct failure descriptions.
func firstProblems(problems []string, n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range problems {
		if p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// exactCounts are the server-side work counters of a timed window that
// must repeat exactly for the same code, workload and seed.
type exactCounts struct {
	Requests  int64 `json:"requests"`
	Accepted  int64 `json:"accepted"`
	Jobs      int64 `json:"jobs"`
	CacheHits int64 `json:"cache_hits"`
	Firings   int64 `json:"firings"`
	Saves     int64 `json:"store_saves"`
	Resumed   int64 `json:"incr_resumed"`
	Reused    int64 `json:"incr_reused"`
	Fallback  int64 `json:"incr_fallback"`
	// Recovered solver panics: each is retried, and a job whose retries
	// fail too is an engine failure. Both must stay 0.
	Retries  int64 `json:"engine_retries"`
	Failures int64 `json:"engine_failures"`
	// Router forwards beyond one per request. Hedges fire when a forward
	// outlasts the router's adaptive delay, so they depend on timing; a
	// hedged or rerouted request reaches a second backend, whose cache
	// does not hold the module.
	Hedged   int64 `json:"router_hedged"`
	Rerouted int64 `json:"router_rerouted"`
}

// drifted reports whether two windows over the same inputs disagree on a
// counter that must repeat. All of them must, unless a timing-dependent
// hedge or reroute moved work between backends in either window; then
// only the counters no second forward can change are compared.
func drifted(a, b exactCounts) bool {
	if a.Hedged+a.Rerouted+b.Hedged+b.Rerouted > 0 {
		for _, c := range []*exactCounts{&a, &b} {
			c.Accepted, c.Jobs, c.CacheHits, c.Firings, c.Hedged, c.Rerouted = 0, 0, 0, 0, 0, 0
		}
	}
	return a != b
}

func countsOf(n int, before, after counters) exactCounts {
	d := func(s string) int64 { return int64(diff(before, after, s)) }
	return exactCounts{
		Hedged:    d("pip_router_hedges_total"),
		Rerouted:  d("pip_router_rerouted_total"),
		Requests:  int64(n),
		Accepted:  d("pip_requests_accepted_total"),
		Jobs:      d("pip_engine_jobs_total"),
		CacheHits: d("pip_cache_hits_total"),
		Firings:   d("pip_rule_firings_total"),
		Saves:     d("pip_store_flushed_total"),
		Resumed:   d(`pip_incremental_requests_total{outcome="resumed"}`),
		Reused:    d(`pip_incremental_requests_total{outcome="reused"}`),
		Fallback:  d(`pip_incremental_requests_total{outcome="fallback"}`),
		Retries:   d("pip_retries_total"),
		Failures:  d("pip_engine_failures_total"),
	}
}

// checkCounts compares a window's counters with what the requests imply:
// every request admitted once, hits and misses as the workload dictates,
// solver firings equal to the reference solves' firings, one store save
// per eviction. A mismatch is a failure, not noise.
func checkCounts(sp spec, in *inputs, got exactCounts, refs map[int]*reference) []string {
	var bad []string
	want := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: %d, want %d", what, got, want))
		}
	}
	atMost := func(what string, got, bound int64) {
		if got > bound {
			bad = append(bad, fmt.Sprintf("%s: %d, want at most %d", what, got, bound))
		}
	}
	n := int64(len(in.timed))
	// A hedged or rerouted request reaches a second backend: one more
	// admission, and a job there that may miss its cache.
	extra := got.Hedged + got.Rerouted
	if got.Accepted < n {
		bad = append(bad, fmt.Sprintf("accepted requests: %d, want at least %d", got.Accepted, n))
	}
	atMost("accepted requests", got.Accepted, n+extra)
	want("engine retries", got.Retries, 0)
	want("engine failures", got.Failures, 0)
	switch sp.name {
	case "cold", "sweep":
		var firings int64
		for _, r := range in.timed {
			firings += refs[r.ref].firings
		}
		want("engine jobs", got.Jobs, n)
		want("cache hits", got.CacheHits, 0)
		want("rule firings", got.Firings, firings)
		if sp.store {
			resident := int64(len(in.warm))
			want("store saves", got.Saves, max(0, resident+n-serve.DefaultCacheEntries)-max(0, resident-serve.DefaultCacheEntries))
		}
	case "hot":
		// Every request's primary backend holds its module, so only
		// second forwards can miss; each miss costs at most the firings
		// of one of the largest solves in the working set.
		atMost("engine jobs", got.Jobs, got.Accepted)
		if got.CacheHits < n-extra {
			bad = append(bad, fmt.Sprintf("cache hits: %d, want at least %d", got.CacheHits, n-extra))
		}
		atMost("cache hits", got.CacheHits, got.Jobs)
		var costs []int64
		for _, i := range distinctRefs(in.timed) {
			costs = append(costs, refs[i].firings)
		}
		sort.Slice(costs, func(i, j int) bool { return costs[i] > costs[j] })
		var firings int64
		for _, c := range costs[:min(int(extra), len(costs))] {
			firings += c
		}
		atMost("rule firings", got.Firings, firings)
		if extra == 0 {
			want("engine jobs", got.Jobs, n)
			want("cache hits", got.CacheHits, n)
		}
	case "resolve":
		want("incremental outcomes", got.Resumed+got.Reused+got.Fallback, n)
	}
	return bad
}
