package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/serve"
	"github.com/pip-analysis/pip/internal/workload"
)

// moduleShape is the synthetic corpus cold, hot and resolve draw from: a
// tenth of the paper's files per draw at 5% of their size, capped at 1500
// instructions, without the escape-heavy outliers. At this size decode,
// parse and hash dominate a default-config request, and a run of about
// ten seconds answers several thousand requests on two cores.
var moduleShape = workload.Options{Scale: 0.1, SizeScale: 0.05, MaxInstrs: 1500, NoPathological: true}

// sweepShape is the sweep workload's corpus: the paper's files at a
// quarter of their size, capped at 6000 instructions, without the
// escape-heavy outliers (under plain IP+WL(FIFO) one of those, or an
// uncapped 100000-instruction file, alone takes minutes). At this size
// the solve is the larger part of a request under the Table V configs,
// so a solver change shows end to end.
var sweepShape = workload.Options{Scale: 0.1, SizeScale: 0.25, MaxInstrs: 6000, NoPathological: true}

// sweepConfigs are the paper's Table V configurations the sweep workload
// rotates through. Naive configurations are left out: on this corpus a
// single Naive request can take seconds, which would make the run's
// length depend on which modules the seed happens to draw.
var sweepConfigs = []string{"IP+WL(FIFO)", "EP+OVS+WL(FIFO)+LCD+DP", "EP+WL(2LRF)+HCD", "IP+WL(FIFO)+PIP"}

// resolveConfig is the lineage configuration of the resolve workload. The
// default PIP configuration never checkpoints, so a lineage under it
// could not resume.
const resolveConfig = "IP+WL(FIFO)+DP"

// Request-mix constants.
const (
	hotWorkingSet  = 200 // modules replayed by hot, well under the 1024-entry cache
	resolveEdits   = 15  // edits per lineage after its creating request
	resolveActive  = 4   // lineages a resolve client interleaves
	queriedGlobals = 8   // globals named in each request's queries
	queriedReturns = 4   // function return values named in each request's queries
)

// spec describes one workload: its clients, its cluster and the rate
// that sizes a run. rate is the request count per --seconds; it was set
// so that a run lasts about --seconds on a two-core host, and a fixed
// count makes every exact counter repeat from run to run.
type spec struct {
	name    string
	why     string
	clients int
	router  bool // clients go through a serve.Router to two backends
	store   bool // the backend persists evicted solutions
	rate    int
	warm    int // warm-up requests before the timed window
	shape   workload.Options
}

var specs = []spec{
	{name: "cold", shape: moduleShape, clients: 1, store: true, rate: 500, warm: 32,
		why: "distinct never-seen modules under the default config: the miss path, decode, parse and hash bound; store writes once the LRU fills"},
	{name: "hot", shape: moduleShape, clients: 2, router: true, rate: 850,
		why: "a 200-module working set replayed through the router after warm-up: answers come from memory, so the router hop and the hit path show"},
	{name: "sweep", shape: sweepShape, clients: 1, rate: 80, warm: 8,
		why: "distinct modules under four Table V configs in rotation: the solver's share is large enough for a solver change to show end to end"},
	{name: "resolve", shape: moduleShape, clients: 1, rate: 700, warm: 2 * (resolveEdits + 1),
		why: "incremental /v1/resolve lineages with resuming and falling-back edits: session state and core/incr"},
}

func specFor(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// wireRequest mirrors the request body shape of serve's /v1/solve and
// /v1/resolve handlers.
type wireRequest struct {
	Name    string   `json:"name,omitempty"`
	MIR     string   `json:"mir,omitempty"`
	Config  string   `json:"config,omitempty"`
	Handle  string   `json:"handle,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// request is one request of a run. Requests that send the same module
// under the same configuration share a ref, the index of the job whose
// reference answer checks them.
type request struct {
	path string
	body []byte // JSON body; resolve edits get their handle spliced in at send time
	ref  int
	// Resolve lineage bookkeeping: lineage index and step (0 creates the
	// lineage); lineage is -1 on /v1/solve requests.
	lineage int
	step    int
}

// refJob is one distinct (module, configuration) pair of a run.
type refJob struct {
	mir     string
	config  string
	queries []string
}

// inputs is everything a run sends, generated from the workload seed.
type inputs struct {
	warm    []request
	fill    []request // repeated hits sent after warm to fill the servers' trace indexes
	timed   []request
	refs    []refJob
	modules int // distinct modules generated
	instrs  int // their instructions
	bytes   int // their MIR bytes
}

// corpusFile is one generated module in printed form.
type corpusFile struct {
	mir     string
	instrs  int
	globals []string
	queries []string
}

// genModules returns n distinct modules drawn from seeded corpus draws in
// a seeded order. Draws are generated in parallel; each is deterministic
// in its own seed, so the result does not depend on scheduling.
func genModules(seed int64, n int, shape workload.Options) []corpusFile {
	perDraw := 0
	for _, su := range workload.Suites {
		perDraw += max(1, int(float64(su.Files)*shape.Scale+0.5))
	}
	// One extra draw covers modules dropped as duplicates.
	draws := (n+perDraw-1)/perDraw + 1
	parts := make([][]corpusFile, draws)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for d := 0; d < draws; d++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(d int) {
			defer wg.Done()
			defer func() { <-sem }()
			for _, f := range workload.GenerateCorpus(withSeed(shape, seed*1000+int64(d))) {
				parts[d] = append(parts[d], printFile(f))
			}
		}(d)
	}
	wg.Wait()
	seen := map[string]bool{}
	var all []corpusFile
	for _, p := range parts {
		for _, f := range p {
			if !seen[f.mir] {
				seen[f.mir] = true
				all = append(all, f)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

func withSeed(o workload.Options, seed int64) workload.Options {
	o.Seed = seed
	return o
}

func printFile(f workload.File) corpusFile {
	m := f.Module
	cf := corpusFile{mir: pip.PrintIR(m), instrs: m.NumInstrs()}
	for _, g := range m.Globals {
		cf.globals = append(cf.globals, g.GName)
	}
	cf.queries = append(cf.queries, firstN(cf.globals, queriedGlobals)...)
	rets := 0
	for _, fn := range m.Funcs {
		if !fn.IsDecl() && rets < queriedReturns {
			cf.queries = append(cf.queries, fn.FName+".$ret")
			rets++
		}
	}
	return cf
}

func firstN[T any](s []T, n int) []T {
	if len(s) > n {
		s = s[:n]
	}
	return append([]T(nil), s...)
}

// build generates a workload's inputs: n timed requests plus warm-up.
func build(sp spec, seed int64, n int, shape workload.Options) (*inputs, error) {
	in := &inputs{}
	solve := func(f corpusFile, config string) request {
		in.refs = append(in.refs, refJob{mir: f.mir, config: config, queries: f.queries})
		return request{path: "/v1/solve", body: encodeBody(wireRequest{MIR: f.mir, Config: config, Queries: f.queries}), ref: len(in.refs) - 1, lineage: -1}
	}
	count := func(fs []corpusFile) {
		in.modules += len(fs)
		for _, f := range fs {
			in.instrs += f.instrs
			in.bytes += len(f.mir)
		}
	}
	switch sp.name {
	case "cold":
		fs := genModules(seed, sp.warm+n, shape)
		count(fs)
		for i, f := range fs {
			r := solve(f, "")
			if i < sp.warm {
				in.warm = append(in.warm, r)
			} else {
				in.timed = append(in.timed, r)
			}
		}
	case "sweep":
		fs := genModules(seed, sp.warm+n, shape)
		count(fs)
		// Configurations rotate in order of module size, so each one
		// solves an equal share of every size: which modules a seed
		// hands the slowest configuration then does not decide the
		// run's work.
		bySize := make([]int, len(fs))
		for i := range bySize {
			bySize[i] = i
		}
		sort.SliceStable(bySize, func(a, b int) bool { return fs[bySize[a]].instrs < fs[bySize[b]].instrs })
		config := make([]string, len(fs))
		for rank, i := range bySize {
			config[i] = sweepConfigs[rank%len(sweepConfigs)]
		}
		for i, f := range fs {
			r := solve(f, config[i])
			if i < sp.warm {
				in.warm = append(in.warm, r)
			} else {
				in.timed = append(in.timed, r)
			}
		}
	case "hot":
		fs := genModules(seed, hotWorkingSet, shape)
		count(fs)
		for _, f := range fs {
			in.warm = append(in.warm, solve(f, ""))
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < n; i++ {
			r := in.warm[rng.Intn(len(in.warm))]
			in.timed = append(in.timed, r)
		}
	case "resolve":
		steps := resolveEdits + 1
		warmLineages := sp.warm / steps
		lineages := warmLineages + (n+steps-1)/steps
		fs := genModules(seed, 4*lineages, shape)
		var bases []corpusFile
		for _, f := range fs {
			if len(f.globals) >= 2 && len(bases) < lineages && lastRet(f.mir) >= 0 {
				bases = append(bases, f)
			}
		}
		if len(bases) < lineages {
			return nil, fmt.Errorf("resolve: %d of %d lineage bases have two globals", len(bases), lineages)
		}
		count(bases)
		rng := rand.New(rand.NewSource(seed ^ 0xed17))
		versions := make([][]request, lineages)
		for l, f := range bases {
			mir := f.mir
			for s := 0; s < steps; s++ {
				if s > 0 {
					mir = applyEdit(mir, f.globals, s, rng)
				}
				in.refs = append(in.refs, refJob{mir: mir, config: resolveConfig, queries: f.queries})
				wr := wireRequest{MIR: mir, Queries: f.queries}
				if s == 0 {
					wr.Config = resolveConfig
				}
				versions[l] = append(versions[l], request{path: "/v1/resolve", body: encodeBody(wr), ref: len(in.refs) - 1, lineage: l, step: s})
			}
		}
		in.warm = interleave(versions[:warmLineages])
		in.timed = interleave(versions[warmLineages:])
		in.timed = in.timed[:n]
		for _, f := range firstN(bases, 32) {
			in.warm = append(in.warm, solve(f, ""))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", sp.name)
	}
	// The fill repeats the smaller half of the warm-up solve requests,
	// all answered from memory by now, until every server's per-request
	// trace index has wrapped: timed requests then meet the servers'
	// steady-state memory.
	var pool []request
	for _, r := range in.warm {
		if r.lineage < 0 {
			pool = append(pool, r)
		}
	}
	sort.SliceStable(pool, func(i, j int) bool { return len(pool[i].body) < len(pool[j].body) })
	pool = pool[:(len(pool)+1)/2]
	backends := 1
	if sp.router {
		backends = 2
	}
	for i := 0; i < 3*serve.DefaultTraceIndexSize*backends; i++ {
		in.fill = append(in.fill, pool[i%len(pool)])
	}
	return in, nil
}

// applyEdit inserts one seeded edit before the final ret of the module's
// last function. Odd steps add a store between two existing globals,
// which only adds constraints and resumes from the checkpoint; even steps
// add a fresh local whose address is stored into a global, which adds a
// variable and falls back to a from-scratch solve.
func applyEdit(mir string, globals []string, step int, rng *rand.Rand) string {
	a, b := globals[rng.Intn(len(globals))], globals[rng.Intn(len(globals))]
	var edit string
	if step%2 == 1 {
		edit = fmt.Sprintf("  store @%s, @%s\n", a, b)
	} else {
		edit = fmt.Sprintf("  %%edit%d = alloca i64\n  store %%edit%d, @%s\n", step, step, b)
	}
	at := lastRet(mir)
	return mir[:at] + edit + mir[at:]
}

// interleave orders lineage versions for one client that works on
// resolveActive lineages at a time, so consecutive requests land on
// different sessions.
func interleave(versions [][]request) []request {
	var out []request
	for g := 0; g < len(versions); g += resolveActive {
		end := min(g+resolveActive, len(versions))
		for s := range versions[g] {
			for _, v := range versions[g:end] {
				out = append(out, v[s])
			}
		}
	}
	return out
}

// lastRet is the offset of the last function's final ret line, or -1.
func lastRet(mir string) int {
	i := strings.LastIndex(mir, "\n  ret")
	if i < 0 {
		return -1
	}
	return i + 1
}

func encodeBody(r wireRequest) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // strings and string slices always marshal
	}
	return b
}

// withHandle splices a lineage handle into an encoded resolve body.
func withHandle(body []byte, handle string) []byte {
	h, _ := json.Marshal(handle)
	out := make([]byte, 0, len(body)+len(h)+12)
	out = append(out, `{"handle":`...)
	out = append(out, h...)
	out = append(out, ',')
	return append(out, body[1:]...)
}

// distinctRefs lists the refs used by a request list, sorted.
func distinctRefs(reqs []request) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range reqs {
		if !seen[r.ref] {
			seen[r.ref] = true
			out = append(out, r.ref)
		}
	}
	sort.Ints(out)
	return out
}
