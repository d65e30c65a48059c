package stats

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// LatencyHistogram accumulates float64 samples (typically seconds) into
// fixed buckets chosen at construction, Prometheus-style: bucket i
// counts samples ≤ bounds[i], plus one overflow bucket above the last
// bound. It keeps exact count and sum, so the mean is exact.
//
// Like the rest of this package it is not synchronized; callers that
// observe from multiple goroutines hold their own lock.
type LatencyHistogram struct {
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	count  uint64
	sum    float64
}

// DefaultLatencyBuckets spans sub-millisecond cache hits to multi-second
// full simulations.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewLatencyHistogram builds a histogram over the given ascending bucket
// upper bounds; with no bounds it uses DefaultLatencyBuckets.
func NewLatencyHistogram(bounds ...float64) *LatencyHistogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &LatencyHistogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *LatencyHistogram) Observe(v float64) {
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
}

// Count returns the number of samples observed.
func (h *LatencyHistogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *LatencyHistogram) Sum() float64 { return h.sum }

// Mean returns the exact sample mean, or 0 with no samples.
func (h *LatencyHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Prom accumulates metrics in the Prometheus text exposition format
// (version 0.0.4), the format scraped from a /metrics endpoint. Label
// maps render sorted by key so output is deterministic and testable
// against goldens.
type Prom struct {
	b strings.Builder
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *Prom) header(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *Prom) sample(name string, labels map[string]string, v float64) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		p.b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, "%s=%q", k, labels[k])
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(promFloat(v))
	p.b.WriteByte('\n')
}

// Gauge emits a gauge metric.
func (p *Prom) Gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.sample(name, nil, v)
}

// Counter emits a counter metric.
func (p *Prom) Counter(name, help string, v float64) {
	p.header(name, help, "counter")
	p.sample(name, nil, v)
}

// Sample is one labeled point of a metric family, for the Vec
// emitters below.
type Sample struct {
	Labels map[string]string
	Value  float64
}

// GaugeVec emits one gauge family with a sample per label set (for
// example one hbserved_worker_up point per cluster worker). The header
// is written once; samples render in the order given, each with its
// labels sorted.
func (p *Prom) GaugeVec(name, help string, samples []Sample) {
	p.header(name, help, "gauge")
	for _, s := range samples {
		p.sample(name, s.Labels, s.Value)
	}
}

// CounterVec emits one counter family with a sample per label set.
func (p *Prom) CounterVec(name, help string, samples []Sample) {
	p.header(name, help, "counter")
	for _, s := range samples {
		p.sample(name, s.Labels, s.Value)
	}
}

// Histogram emits h as a Prometheus histogram: cumulative _bucket
// series with "le" labels (ending in +Inf), then _sum and _count.
func (p *Prom) Histogram(name, help string, h *LatencyHistogram) {
	p.header(name, help, "histogram")
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		p.sample(name+"_bucket", map[string]string{"le": promFloat(bound)}, float64(cum))
	}
	cum += h.counts[len(h.bounds)]
	p.sample(name+"_bucket", map[string]string{"le": "+Inf"}, float64(cum))
	p.sample(name+"_sum", nil, h.sum)
	p.sample(name+"_count", nil, float64(h.count))
}

// String returns everything emitted so far.
func (p *Prom) String() string { return p.b.String() }
