package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/serve"
	"github.com/pip-analysis/pip/internal/store"
)

// replayedLayers are the replay spans that together account for backend
// handler time; whatever they leave is serve.unattributed_share. On the
// hit path engine.hit covers the hash again, so a request's hash span
// counts only where it has no engine.hit span.
var replayedLayers = []string{"decode", "parse", "hash", "engine.hit", "gen", "solve", "incr.update", "store.save", "encode"}

// perLayer is the traced run: an untraced pass and a traced pass over the
// same inputs on fresh clusters, then a sequential replay of each timed
// request's layer calls. Per-layer metrics come from the recorded spans
// (the same records the trace file holds) and from /metrics diffs.
func perLayer(cfg config, n int, log io.Writer) (result, provenance, error) {
	in, err := build(cfg.spec, cfg.seed, n, cfg.shape)
	if err != nil {
		return result{}, provenance{}, err
	}
	pass := func(rec *recorder) (*window, error) {
		s, err := setUp(cfg, n, in, rec)
		if err != nil {
			return nil, err
		}
		w, err := measure(s, cfg.spec.clients, rec)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		runtime.GC()
		return w, err
	}
	plain, err := pass(nil)
	if err != nil {
		return result{}, provenance{}, err
	}
	// Per timed request: a client, router and backend span plus at most
	// seven replay spans.
	rec := newRecorder(cfg.spec.clients, 10*len(in.timed)+1024)
	traced, err := pass(rec)
	if err != nil {
		return result{}, provenance{}, err
	}
	v0 := verifyWindow(cfg, in, plain)
	v := verifyWindow(cfg, in, traced)
	var problems []string
	problems = append(problems, v0.problems...)
	problems = append(problems, v.problems...)
	if drifted(v0.counts, v.counts) {
		problems = append(problems, fmt.Sprintf("exact counters drifted between passes: %+v then %+v", v0.counts, v.counts))
	}

	tot, err := replay(cfg, in, traced, v, rec.tr.NewTrack("replay"))
	if err != nil {
		return result{}, provenance{}, err
	}
	metrics := layerMetrics(rec, plain, traced, v, in, tot)

	path := traceFile(cfg)
	if err := rec.tr.WriteChromeFile(path); err != nil {
		return result{}, provenance{}, fmt.Errorf("write trace: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return result{}, provenance{}, err
	}
	if err := obs.CheckChrome(data); err != nil {
		problems = append(problems, "trace file: "+err.Error())
	}
	if d := rec.tr.Dropped(); d > 0 {
		problems = append(problems, fmt.Sprintf("trace dropped %d records", d))
	}

	prov := newProvenance(cfg, in)
	prov.Counts, prov.TraceFile, prov.Problems = v.counts, path, problems
	logProblems(log, problems)
	return result{
		Correct:   v0.failed == 0 && len(problems) == 0,
		Attempted: 2 * len(in.timed),
		Failed:    v0.failed + v.failed,
		Metrics:   metrics,
	}, prov, nil
}

// replayTotals are the replay's solver telemetry sums.
type replayTotals struct {
	offline, propagate, collapse time.Duration
	worklistPeak                 int
}

// replay times each timed request's layer calls in isolation, in request
// order on one goroutine, through the same public entry points the
// backend calls: JSON decode of the sent body, pip.ParseIR, the engine's
// cache-key hash, then either a resident hit (pip.Engine.Analyze), a
// generation and solve (plus the store save the backend made for the
// request's eviction), or a pip.Session update, and finally the JSON
// encode of the answer. Each call is a span on lane tagged with the
// request's ID.
func replay(cfg config, in *inputs, w *window, v *verified, lane obs.Track) (replayTotals, error) {
	var tot replayTotals
	hits := pip.NewEngine(pip.BatchOptions{Cache: true, CacheEntries: serve.DefaultCacheEntries})
	incr := pip.NewEngine(pip.BatchOptions{Cache: true, CacheEntries: serve.DefaultCacheEntries})
	sessions := map[int]*pip.Session{}
	var ds *store.Store
	if v.counts.Saves > 0 {
		dir, err := os.MkdirTemp(cfg.workDir, "replay-store-")
		if err != nil {
			return tot, err
		}
		defer os.RemoveAll(dir)
		if ds, err = store.Open(dir); err != nil {
			return tot, err
		}
		defer ds.Close()
	}
	configOf := func(name string) (pip.Config, error) {
		if name == "" {
			return pip.DefaultConfig(), nil
		}
		return pip.ParseConfig(name)
	}
	// Make every module the backend answered from memory resident in the
	// replay engine too, untimed.
	for i, r := range in.timed {
		if v.answers[i].CacheHit && r.lineage < 0 {
			m, err := pip.ParseIR(in.refs[r.ref].mir)
			if err != nil {
				return tot, err
			}
			c, err := configOf(in.refs[r.ref].config)
			if err != nil {
				return tot, err
			}
			hits.Analyze(m, c)
		}
	}
	var saved int64
	for i, r := range in.timed {
		o, a := w.outs[i], &v.answers[i]
		id := obs.S("id", o.id)

		var wr wireRequest
		sp := lane.Begin("decode", id)
		dec := json.NewDecoder(bytes.NewReader(o.sent))
		dec.DisallowUnknownFields()
		err := dec.Decode(&wr)
		sp.End()
		if err != nil {
			return tot, fmt.Errorf("replay decode %s: %w", o.id, err)
		}
		c, err := configOf(in.refs[r.ref].config)
		if err != nil {
			return tot, err
		}
		sp = lane.Begin("parse", id, obs.N("bytes", int64(len(wr.MIR))))
		m, err := pip.ParseIR(wr.MIR)
		sp.End()
		if err != nil {
			return tot, fmt.Errorf("replay parse %s: %w", o.id, err)
		}

		switch {
		case r.lineage >= 0:
			sess := sessions[r.lineage]
			if sess == nil {
				sess = incr.NewSession(c)
				sessions[r.lineage] = sess
			}
			sp = lane.Begin("incr.update", id)
			res := sess.Analyze(m)
			sp.End()
			if res.Err != nil {
				return tot, fmt.Errorf("replay session %s: %w", o.id, res.Err)
			}
		case a.CacheHit:
			sp = lane.Begin("hash", id)
			engine.ModuleHash(m)
			sp.End()
			sp = lane.Begin("engine.hit", id)
			res := hits.Analyze(m, c)
			sp.End()
			if !res.CacheHit {
				return tot, fmt.Errorf("replay %s: resident module missed", o.id)
			}
		default:
			sp = lane.Begin("hash", id)
			h := engine.ModuleHash(m)
			sp.End()
			sp = lane.Begin("gen", id)
			g := core.Generate(m)
			sp.End()
			sp = lane.Begin("solve", id)
			sol, err := core.Solve(g.Problem, c)
			sp.End()
			if err != nil {
				return tot, fmt.Errorf("replay solve %s: %w", o.id, err)
			}
			t := sol.Telemetry
			tot.offline += t.Offline
			tot.propagate += t.Propagate
			tot.collapse += t.Collapse
			tot.worklistPeak = max(tot.worklistPeak, t.WorklistPeak)
			// With one client the backend's LRU evicts in request order,
			// so its saves are the solutions of the earliest misses.
			if ds != nil && saved < v.counts.Saves {
				sp = lane.Begin("store.save", id)
				err := ds.Save(engine.CacheKey(h, c), sol)
				sp.End()
				if err != nil {
					return tot, fmt.Errorf("replay store save %s: %w", o.id, err)
				}
				saved++
			}
		}

		sp = lane.Begin("encode", id)
		err = json.NewEncoder(io.Discard).Encode(a)
		sp.End()
		if err != nil {
			return tot, err
		}
	}
	return tot, nil
}

// spanTable indexes a trace's spans by name, then request ID.
type spanTable map[string]map[string]time.Duration

func tableOf(recs []obs.Record) (spanTable, map[string]int64) {
	t := spanTable{}
	parseBytes := map[string]int64{}
	twice := map[string]bool{}
	for _, r := range recs {
		if r.Kind != "span" {
			continue
		}
		var id string
		var nbytes int64
		for _, a := range r.Args {
			switch a.Key {
			case "id":
				id = a.Str
			case "bytes":
				nbytes = a.Num
			}
		}
		if id == "" {
			continue
		}
		if t[r.Name] == nil {
			t[r.Name] = map[string]time.Duration{}
		}
		if _, ok := t[r.Name][id]; ok {
			twice[id] = true
		}
		t[r.Name][id] = time.Duration(r.DurNS)
		if r.Name == "parse" {
			parseBytes[id] = nbytes
		}
	}
	// A hedged request reaches two backends: its handler time and its
	// router hop have no single value, so it is left out of every layer.
	for id := range twice {
		for _, byID := range t {
			delete(byID, id)
		}
		delete(parseBytes, id)
	}
	return t, parseBytes
}

// values lists one span's durations in the given unit.
func (t spanTable) values(name string, unit time.Duration) []float64 {
	var out []float64
	for _, d := range t[name] {
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

func (t spanTable) sum(name string) time.Duration {
	var s time.Duration
	for _, d := range t[name] {
		s += d
	}
	return s
}

// minus lists, per request ID of outer, outer's duration less inner's:
// the self time outer spends outside its child span.
func (t spanTable) minus(outer, inner string, unit time.Duration) []float64 {
	var out []float64
	for id, d := range t[outer] {
		if c, ok := t[inner][id]; ok {
			out = append(out, float64(d-c)/float64(unit))
		}
	}
	return out
}

func layerMetrics(rec *recorder, plain, traced *window, v *verified, in *inputs, tot replayTotals) map[string]metric {
	t, parseBytes := tableOf(rec.tr.Export())
	handler := t.sum("backend")
	share := func(names ...string) float64 {
		if handler <= 0 {
			return 0
		}
		var s time.Duration
		for _, n := range names {
			s += t.sum(n)
		}
		return float64(s) / float64(handler)
	}
	var hitHash time.Duration
	for id := range t["engine.hit"] {
		hitHash += t["hash"][id]
	}
	p50 := func(name string, unit time.Duration) float64 { return quantile(t.values(name, unit), 0.5) }
	p99 := func(name string, unit time.Duration) float64 { return quantile(t.values(name, unit), 0.99) }
	d := func(series string) float64 { return diff(traced.before, traced.after, series) }

	var totalBytes int64
	for _, b := range parseBytes {
		totalBytes += b
	}
	parseMBs := 0.0
	if ps := t.sum("parse").Seconds(); ps > 0 {
		parseMBs = float64(totalBytes) / 1e6 / ps
	}
	hitRatio := 0.0
	if v.counts.Jobs > 0 {
		hitRatio = float64(v.counts.CacheHits) / float64(v.counts.Jobs)
	}
	var edits, resumed, fellBack, reusedSol, reusedC float64
	for i, r := range in.timed {
		inc := v.answers[i].Incremental
		if r.lineage < 0 || r.step == 0 || inc == nil {
			continue
		}
		edits++
		reusedC += float64(inc.Reused)
		switch {
		case inc.ReusedSolution:
			reusedSol++
		case inc.Resumed:
			resumed++
		default:
			fellBack++
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rps := func(w *window) float64 { return float64(len(w.outs)) / w.elapsed.Seconds() }
	us, ms := time.Microsecond, time.Millisecond

	m := map[string]float64{
		"serve.handler_ms_p50":     p50("backend", ms),
		"serve.handler_ms_p99":     p99("backend", ms),
		"serve.client_ms_p50":      quantile(t.minus("request", "backend", ms), 0.5),
		"serve.decode_us_p50":      p50("decode", us),
		"serve.encode_us_p50":      p50("encode", us),
		"serve.queue_wait_ms_sum":  d("pip_queue_wait_seconds_sum") * 1e3,
		"serve.rejected":           d("pip_requests_rejected_total"),
		"serve.degraded":           d("pip_solves_degraded_total"),
		"serve.unattributed_share": 1 - share(replayedLayers...) + ratio(float64(hitHash), float64(handler)),
		"ir.parse_us_p50":          p50("parse", us),
		"ir.parse_us_p99":          p99("parse", us),
		"ir.parse_share":           share("parse"),
		"ir.parse_mb_s":            parseMBs,
		"engine.hash_us_p50":       p50("hash", us),
		"engine.hash_share":        share("hash"),
		"engine.hit_us_p50":        p50("engine.hit", us),
		"engine.cache_hit_ratio":   hitRatio,
		"engine.coalesced":         d("pip_coalesced_total"),
		"core.gen_us_p50":          p50("gen", us),
		"core.gen_share":           share("gen"),
		"core.solve_us_p50":        p50("solve", us),
		"core.solve_us_p99":        p99("solve", us),
		"core.solve_share":         share("solve"),
		"core.offline_us_sum":      float64(tot.offline) / float64(us),
		"core.propagate_us_sum":    float64(tot.propagate) / float64(us),
		"core.collapse_us_sum":     float64(tot.collapse) / float64(us),
		"core.firings":             float64(v.counts.Firings),
		"core.worklist_peak":       float64(tot.worklistPeak),
		"incr.update_us_p50":       p50("incr.update", us),
		"incr.resumed_ratio":       ratio(resumed, edits),
		"incr.fallback_ratio":      ratio(fellBack, edits),
		"incr.reused_ratio":        ratio(reusedSol, edits),
		"incr.reused_constraints":  reusedC,
		"router.hop_ms_p50":        quantile(t.minus("router", "backend", ms), 0.5),
		"router.hop_ms_p99":        quantile(t.minus("router", "backend", ms), 0.99),
		"router.rerouted":          d("pip_router_rerouted_total"),
		"router.hedged":            d("pip_router_hedges_total"),
		"store.save_us_p50":        p50("store.save", us),
		"store.saves":              float64(v.counts.Saves),
		"store.bytes":              float64(traced.storeBytes),
		"trace.overhead_ratio":     rps(traced) / rps(plain),
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, def := range perLayerMetrics {
		out[def.name] = metric{Value: m[def.name], Unit: def.unit}
	}
	return out
}
