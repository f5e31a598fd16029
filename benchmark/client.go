package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// maxOpsPerWorker caps each worker's stream: a run ends at its deadline
// long before a worker could issue this many requests.
const maxOpsPerWorker = 1 << 20

// tally is what a set of requests produced.
type tally struct {
	queryMs  []float64
	appendMs []float64
	attempts int
	failures int
	acked    []string       // fact ids the server acknowledged
	headers  map[string]int // X-Mddm-Cache / X-Mddm-Batch outcomes seen
	errors   []string       // the first few failures, for the report
	// done holds each successful timed op's completion time since the
	// window opened (zero origin: not a timed tally), for the per-second
	// figures.
	origin time.Time
	done   []event
}

// event is one completed op of the timed window.
type event struct {
	at     time.Duration
	ms     float64
	append bool
}

func newTally() *tally { return &tally{headers: map[string]int{}} }

func (t *tally) fail(format string, args ...any) {
	t.failures++
	if len(t.errors) < 5 {
		t.errors = append(t.errors, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.queryMs = append(t.queryMs, o.queryMs...)
	t.appendMs = append(t.appendMs, o.appendMs...)
	t.attempts += o.attempts
	t.failures += o.failures
	t.acked = append(t.acked, o.acked...)
	t.done = append(t.done, o.done...)
	for k, v := range o.headers {
		t.headers[k] += v
	}
	for _, e := range o.errors {
		if len(t.errors) < 5 {
			t.errors = append(t.errors, e)
		}
	}
}

// do issues one op and records its latency from send to the last body
// byte. A query must come back 200 with an answer; an append must come
// back 200 acknowledging its own fact id.
func (t *tally) do(ctx context.Context, c *http.Client, base string, o op) {
	t.attempts++
	start := time.Now()
	if o.append {
		status, body, err := post(ctx, c, base+"/append", o.body)
		ms := float64(time.Since(start)) / 1e6
		var ack struct {
			Fact string `json:"fact"`
		}
		switch {
		case err != nil:
			t.fail("append %s: %v", o.fact, err)
		case status != http.StatusOK:
			t.fail("append %s: status %d: %.200s", o.fact, status, body)
		case json.Unmarshal(body, &ack) != nil || ack.Fact != o.fact:
			t.fail("append %s: bad ack %.200s", o.fact, body)
		default:
			t.appendMs = append(t.appendMs, ms)
			t.acked = append(t.acked, o.fact)
			t.event(ms, true)
		}
		return
	}
	status, hdr, body, err := get(ctx, c, base+o.path)
	ms := float64(time.Since(start)) / 1e6
	switch {
	case err != nil:
		t.fail("query %s: %v", o.q, err)
	case status != http.StatusOK:
		t.fail("query %s: status %d: %.200s", o.q, status, body)
	default:
		if _, err := decodeAnswer(body); err != nil {
			t.fail("query %s: %v", o.q, err)
			return
		}
		t.queryMs = append(t.queryMs, ms)
		t.event(ms, false)
		if v := hdr.Get("X-Mddm-Cache"); v != "" {
			t.headers["cache="+v]++
		}
		if v := hdr.Get("X-Mddm-Batch"); v != "" {
			t.headers["batch="+v]++
		}
	}
}

func (t *tally) event(ms float64, isAppend bool) {
	if !t.origin.IsZero() {
		t.done = append(t.done, event{time.Since(t.origin), ms, isAppend})
	}
}

// closedLoop runs workers clients, each with its own connection and
// seeded stream, each sending its next request only when the previous
// one has answered, from start until d has passed. The workers run
// streams first, first+1, …. It returns the merged tally and the time
// from start to the last answer.
func closedLoop(start time.Time, base string, wl *workload, seed int64, first, workers int, d time.Duration) (*tally, time.Duration) {
	ctx := context.Background()
	parts := make([]*tally, workers)
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := httpClient()
			defer c.CloseIdleConnections()
			t, st := newTally(), newStream(wl, seed, first+w)
			t.origin = start
			for i := 0; i < maxOpsPerWorker && time.Now().Before(deadline); i++ {
				t.do(ctx, c, base, st.next())
			}
			parts[w] = t
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := newTally()
	for _, p := range parts {
		all.merge(p)
	}
	return all, elapsed
}
