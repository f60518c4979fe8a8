package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSample is one scrape of a /metrics page in Prometheus text format,
// keyed by the full series text, e.g.
// `skipper_serve_queue_wait_seconds_bucket{le="0.0001"}`.
type promSample map[string]float64

// parseProm reads Prometheus text exposition: comment lines are skipped and
// every other line is `series value`.
func parseProm(text string) promSample {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// scrape fetches and parses url + "/metrics".
func scrape(client *http.Client, url string) (promSample, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/metrics: status %d", url, resp.StatusCode)
	}
	return parseProm(string(body)), nil
}

// sub returns after − before per series (a series absent before counts from
// zero), the activity of one phase.
func (after promSample) sub(before promSample) promSample {
	out := promSample{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// plus adds two samples series by series, merging replicas.
func (a promSample) plus(b promSample) promSample {
	out := promSample{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// sumPrefix adds every series whose text starts with prefix (a counter with
// all its label values).
func (s promSample) sumPrefix(prefix string) float64 {
	var sum float64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// histQuantile estimates quantile q (0..1) of histogram `name` from its
// cumulative buckets, interpolating linearly inside the bucket that holds
// the rank. It returns NaN for an empty histogram.
func (s promSample) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(k[len(prefix):], `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		bs = append(bs, bucket{bound, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].cum
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.cum-below)
		}
		lo, below = b.le, b.cum
	}
	return lo
}

// histMean is sum / count of histogram `name`.
func (s promSample) histMean(name string) float64 {
	n := s[name+"_count"]
	if n == 0 {
		return math.NaN()
	}
	return s[name+"_sum"] / n
}
