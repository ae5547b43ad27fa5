package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pip-analysis/pip/internal/obs"
)

// outcome is what a client observed for one request.
type outcome struct {
	id      string // X-Request-Id the client sent
	status  int
	err     error
	body    []byte
	latency time.Duration
	sent    []byte // the body as sent (resolve edits carry their handle)
}

// newClient returns the HTTP client every benchmark client shares: keep-
// alive connections to loopback, one idle connection per client and server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}, Timeout: 2 * time.Minute}
}

// drive sends reqs from `clients` closed-loop clients: each client sends
// the next unsent request only after reading the whole answer to its
// previous one. It returns one outcome per request and the wall time from
// the first send to the last answer. Request IDs start with prefix; with
// a recorder, each request is a span on its client's lane.
func drive(client *http.Client, target string, reqs []request, clients int, prefix string, rec *recorder) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	// Lineage handles, learned from the answers that create lineages.
	var handles sync.Map
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lane obs.Track
			if rec != nil {
				lane = rec.lanes[c]
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				body := r.body
				if r.lineage >= 0 && r.step > 0 {
					h, _ := handles.Load(r.lineage)
					hs, _ := h.(string)
					body = withHandle(body, hs)
				}
				id := prefix + requestID(c, i)
				sp := lane.Begin("request", obs.S("id", id))
				o := send(client, target+r.path, id, body)
				sp.End()
				o.id, o.sent = id, body
				if r.lineage >= 0 && r.step == 0 && o.err == nil && o.status == http.StatusOK {
					var a struct {
						Handle string `json:"handle"`
					}
					if json.Unmarshal(o.body, &a) == nil {
						handles.Store(r.lineage, a.Handle)
					}
				}
				out[i] = o
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// send posts one body and reads the whole answer; latency runs from just
// before the request is written to just after the last body byte is read.
func send(client *http.Client, url, id string, body []byte) outcome {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return outcome{err: err, latency: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return outcome{status: resp.StatusCode, err: fmt.Errorf("read answer: %w", err), latency: lat}
	}
	return outcome{status: resp.StatusCode, body: b, latency: lat}
}
