package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: series key (name plus its label
// block exactly as written, e.g. `mddm_cache_hits_total` or
// `mddm_plan_queries_total{mode="planned"}`) → value.
type scrape map[string]float64

// parseProm reads the Prometheus text format: comment and blank lines
// are skipped, every other line is `<series> <value>`. Lines that do not
// parse are an error, so a garbled exposition cannot read as zeros.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// fetchProm scrapes base/metrics.
func fetchProm(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: GET /metrics returned %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// seriesName is the metric name of a series key (the part before '{').
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// delta is after − before per series. A series missing from after is
// absent (a later version renamed or removed it); one missing only from
// before started at zero.
type delta struct {
	d scrape
}

func diffProm(before, after scrape) delta {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return delta{d}
}

// sum adds every series of the named metric; ok is false when the
// metric has no series at all.
func (d delta) sum(name string) (v float64, ok bool) {
	for k, x := range d.d {
		if seriesName(k) == name {
			v += x
			ok = true
		}
	}
	return v, ok
}

// get returns one exact series.
func (d delta) get(key string) (float64, bool) {
	v, ok := d.d[key]
	return v, ok
}

// byLabel returns the named metric's series keyed by their label block,
// for per-reason breakdowns.
func (d delta) byLabel(name string) map[string]float64 {
	out := map[string]float64{}
	for k, x := range d.d {
		if seriesName(k) == name {
			out[strings.TrimPrefix(k, name)] = x
		}
	}
	return out
}

// ratio divides two deltas, reading 0 when the denominator is 0 or
// either side is absent.
func ratio(num, den float64, okNum, okDen bool) float64 {
	if !okNum || !okDen || den == 0 || math.IsNaN(num/den) {
		return 0
	}
	return num / den
}
