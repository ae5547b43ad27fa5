package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/serve"
)

// cluster is the set of servers one pass drives: one or two pipserve
// backends and, for the hot workload, a shard router in front of them.
// Every server listens on loopback TCP inside this process.
type cluster struct {
	backends  []*serve.Server
	router    *serve.Router
	servers   []*http.Server // every listener's server, backends then router
	urls      []string       // backend base URLs
	routerURL string
	storeDir  string
	target    string // base URL the clients send to
}

// startCluster starts the servers a workload needs. rec, when non-nil,
// wraps every Handler with span-recording middleware; storeDir, when
// non-empty, gives the single backend a persistent store.
func startCluster(sp spec, storeDir string, rec *recorder) (*cluster, error) {
	c := &cluster{storeDir: storeDir}
	nb := 1
	if sp.router {
		nb = 2
	}
	for i := 0; i < nb; i++ {
		// Options as pipserve's defaults set them, without request logs.
		s := serve.New(serve.Options{Retries: 2, WatchdogFactor: 4})
		if storeDir != "" {
			if err := s.OpenStore(storeDir); err != nil {
				c.stop()
				return nil, fmt.Errorf("open store: %w", err)
			}
		}
		url, err := c.listen(rec.wrap(s.Handler(), "backend"))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.backends = append(c.backends, s)
		c.urls = append(c.urls, url)
	}
	c.target = c.urls[0]
	if sp.router {
		c.router = serve.NewRouter(serve.RouterOptions{Backends: c.urls})
		url, err := c.listen(rec.wrap(c.router.Handler(), "router"))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.routerURL, c.target = url, url
	}
	return c, nil
}

func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	go srv.Serve(ln) // returns http.ErrServerClosed once stop shuts srv down
	return "http://" + ln.Addr().String(), nil
}

// stop drains and closes every server and its store. Safe on a partly
// started cluster.
func (c *cluster) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if c.router != nil {
		c.router.Shutdown()
	}
	for _, s := range c.backends {
		keep(s.Shutdown(ctx))
	}
	for _, srv := range c.servers {
		keep(srv.Shutdown(ctx))
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, s := range c.backends {
		keep(s.CloseStore())
	}
	return first
}

// storeBytes is the size of the backend's solution log, 0 without one.
func (c *cluster) storeBytes() int64 {
	if c.storeDir == "" {
		return 0
	}
	fi, err := os.Stat(filepath.Join(c.storeDir, "solutions.log"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// counters is one /metrics scrape of the whole cluster: every sample
// summed by metric name across backends, and router samples under their
// own names. Labelled series also appear summed under their bare name.
type counters map[string]float64

// scrape reads /metrics from every server of the cluster.
func (c *cluster) scrape(client *http.Client) (counters, error) {
	out := counters{}
	urls := append([]string(nil), c.urls...)
	if c.routerURL != "" {
		urls = append(urls, c.routerURL)
	}
	for _, u := range urls {
		resp, err := client.Get(u + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		err = parseProm(resp.Body, out)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
	}
	return out, nil
}

// parseProm adds every sample of a Prometheus text exposition to out,
// under its full series name and, for labelled series, under the bare
// metric name too.
func parseProm(r io.Reader, out counters) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("bad sample line %q: %w", line, err)
		}
		series := line[:sp]
		out[series] += v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			out[series[:i]] += v
		}
	}
	return sc.Err()
}

// diff returns after-before for one series.
func diff(before, after counters, series string) float64 { return after[series] - before[series] }

// recorder collects the traced pass's spans: one lane per client, on
// which the client's request span contains the router's and the
// backend's handler spans for the same request ID, plus a replay lane
// for the layer calls timed after the pass. A nil recorder records
// nothing and wraps nothing.
type recorder struct {
	tr    *obs.Trace
	lanes []obs.Track // per client
}

func newRecorder(clients, records int) *recorder {
	r := &recorder{tr: obs.New("e2ebench", records)}
	for i := 0; i < clients; i++ {
		r.lanes = append(r.lanes, r.tr.NewTrack(fmt.Sprintf("client-%d", i)))
	}
	return r
}

// wrap records a span named name around every request h serves, on the
// lane of the client the request ID names.
func (r *recorder) wrap(h http.Handler, name string) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get("X-Request-Id")
		lane, ok := r.laneOf(id)
		if !ok {
			h.ServeHTTP(w, req)
			return
		}
		sp := lane.Begin(name, obs.S("id", id))
		h.ServeHTTP(w, req)
		sp.End()
	})
}

// requestID names request i of client c. Timed requests carry the
// prefix "t", which laneOf requires, so warm-up requests are not traced.
func requestID(c, i int) string { return strconv.Itoa(c) + "-" + strconv.Itoa(i) }

func (r *recorder) laneOf(id string) (obs.Track, bool) {
	cs, _, ok := strings.Cut(id, "-")
	if !ok || !strings.HasPrefix(cs, "t") {
		return obs.Track{}, false
	}
	cs = cs[1:]
	if cs == "" {
		return obs.Track{}, false
	}
	c, err := strconv.Atoi(cs)
	if err != nil || c < 0 || c >= len(r.lanes) {
		return obs.Track{}, false
	}
	return r.lanes[c], true
}
