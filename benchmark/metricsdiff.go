package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// histogram is one /metrics.json histogram series: observation count,
// sum, and cumulative bucket counts by upper bound.
type histogram struct {
	Count   float64
	Sum     float64
	Bounds  []float64 // upper bounds; the last is +Inf
	Buckets []float64 // cumulative counts, parallel to Bounds
}

// snapshot is a parsed /metrics.json document: counters and gauges by
// series key ("name" or "name{k=v,...}"), histograms likewise.
type snapshot struct {
	values map[string]float64
	hists  map[string]histogram
}

// parseMetricsJSON reads the flat document matchd serves: a number per
// counter or gauge series, an object with count, sum and cumulative
// buckets per histogram series.
func parseMetricsJSON(data []byte) (snapshot, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return snapshot{}, fmt.Errorf("metrics.json: %w", err)
	}
	s := snapshot{values: map[string]float64{}, hists: map[string]histogram{}}
	for key, msg := range raw {
		var v float64
		if err := json.Unmarshal(msg, &v); err == nil {
			s.values[key] = v
			continue
		}
		var h struct {
			Count   float64 `json:"count"`
			Sum     float64 `json:"sum"`
			Buckets []struct {
				Le    string  `json:"le"`
				Count float64 `json:"count"`
			} `json:"buckets"`
		}
		if err := json.Unmarshal(msg, &h); err != nil {
			return snapshot{}, fmt.Errorf("metrics.json: series %q: %w", key, err)
		}
		hist := histogram{Count: h.Count, Sum: h.Sum}
		for _, b := range h.Buckets {
			bound := math.Inf(1)
			if b.Le != "+Inf" {
				var err error
				if bound, err = strconv.ParseFloat(b.Le, 64); err != nil {
					return snapshot{}, fmt.Errorf("metrics.json: series %q: bucket bound %q", key, b.Le)
				}
			}
			hist.Bounds = append(hist.Bounds, bound)
			hist.Buckets = append(hist.Buckets, b.Count)
		}
		s.hists[key] = hist
	}
	return s, nil
}

// since returns what happened between an earlier snapshot and this
// one: every series minus its earlier value (series new since then
// count from zero). Meaningful for counters and histograms; gauges are
// read from a snapshot directly.
func (s snapshot) since(before snapshot) snapshot {
	d := snapshot{values: map[string]float64{}, hists: map[string]histogram{}}
	for k, v := range s.values {
		d.values[k] = v - before.values[k]
	}
	for k, h := range s.hists {
		b, ok := before.hists[k]
		out := histogram{Count: h.Count - b.Count, Sum: h.Sum - b.Sum, Bounds: h.Bounds,
			Buckets: append([]float64(nil), h.Buckets...)}
		if ok && len(b.Buckets) == len(h.Buckets) {
			for i := range out.Buckets {
				out.Buckets[i] -= b.Buckets[i]
			}
		}
		d.hists[k] = out
	}
	return d
}

// seriesMatches reports whether key is a series of family name whose
// label set contains label ("" matches every series of the family).
func seriesMatches(key, name, label string) bool {
	if key != name && !strings.HasPrefix(key, name+"{") {
		return false
	}
	return label == "" || strings.Contains(key, label)
}

// value sums the matching counter or gauge series.
func (s snapshot) value(name, label string) float64 {
	total := 0.0
	for k, v := range s.values {
		if seriesMatches(k, name, label) {
			total += v
		}
	}
	return total
}

// add folds another series into h, bucket by bucket. Series with other
// bucket bounds cannot be folded and are left out.
func (h *histogram) add(o histogram) {
	if h.Bounds == nil {
		h.Bounds = o.Bounds
		h.Buckets = make([]float64, len(o.Buckets))
	}
	if len(o.Buckets) != len(h.Buckets) {
		return
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range o.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// hist merges the matching histogram series into one.
func (s snapshot) hist(name, label string) histogram {
	var out histogram
	for k, h := range s.hists {
		if seriesMatches(k, name, label) {
			out.add(h)
		}
	}
	return out
}

func (h histogram) mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// quantile interpolates linearly inside the bucket that holds the
// q-quantile; with matchd's 1-2.5-5 bounds it is good to about a third
// of the value, which is why reconciliation below uses means.
func (h histogram) quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := q * h.Count
	lower, below := 0.0, 0.0
	for i, cum := range h.Buckets {
		if cum >= rank {
			upper := h.Bounds[i]
			if math.IsInf(upper, 1) || cum == below {
				return lower
			}
			return lower + (upper-lower)*(rank-below)/(cum-below)
		}
		lower, below = h.Bounds[i], cum
	}
	return lower
}

// merge adds another process's snapshot into this one, series by
// series, so a fleet can be read as one system.
func (s snapshot) merge(o snapshot) {
	for k, v := range o.values {
		s.values[k] += v
	}
	for k, h := range o.hists {
		sum := s.hists[k]
		sum.add(h)
		s.hists[k] = sum
	}
}

var metricsHTTP = &http.Client{Timeout: 10 * time.Second}

func fetchMetrics(addr string) (snapshot, error) {
	resp, err := metricsHTTP.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return snapshot{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return snapshot{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return snapshot{}, fmt.Errorf("GET %s/metrics.json: %s", addr, resp.Status)
	}
	return parseMetricsJSON(data)
}
