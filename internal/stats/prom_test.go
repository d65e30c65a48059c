package stats

import (
	"strings"
	"testing"
)

func TestLatencyHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if got := h.Count(); got != 0 {
		t.Errorf("Count() = %d, want 0", got)
	}
	if got := h.Sum(); got != 0 {
		t.Errorf("Sum() = %g, want 0", got)
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("Mean() = %g, want 0", got)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := Ratio(5, 0); got != 0 {
		t.Errorf("Ratio(5, 0) = %g, want 0", got)
	}
	if got := Ratio(0, 0); got != 0 {
		t.Errorf("Ratio(0, 0) = %g, want 0", got)
	}
	if got := Ratio(1, 2); got != 0.5 {
		t.Errorf("Ratio(1, 2) = %g, want 0.5", got)
	}
}

// TestPromGolden pins the exact exposition-format output: a scrape
// parser is strict about this text, so rendering changes must be
// deliberate.
func TestPromGolden(t *testing.T) {
	h := NewLatencyHistogram(0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(3)

	var p Prom
	p.Gauge("hb_queue_depth", "Jobs waiting to run.", 4)
	p.Counter("hb_jobs_total", "Jobs accepted.", 17)
	p.Histogram("hb_job_latency_seconds", "Job wall time.", h)

	want := strings.Join([]string{
		"# HELP hb_queue_depth Jobs waiting to run.",
		"# TYPE hb_queue_depth gauge",
		"hb_queue_depth 4",
		"# HELP hb_jobs_total Jobs accepted.",
		"# TYPE hb_jobs_total counter",
		"hb_jobs_total 17",
		"# HELP hb_job_latency_seconds Job wall time.",
		"# TYPE hb_job_latency_seconds histogram",
		`hb_job_latency_seconds_bucket{le="0.1"} 1`,
		`hb_job_latency_seconds_bucket{le="1"} 3`,
		`hb_job_latency_seconds_bucket{le="+Inf"} 4`,
		"hb_job_latency_seconds_sum 4.05",
		"hb_job_latency_seconds_count 4",
		"",
	}, "\n")
	if got := p.String(); got != want {
		t.Errorf("Prom rendering mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPromVecGolden pins the labeled-family rendering: one header per
// family, one sample per label set, labels sorted by key.
func TestPromVecGolden(t *testing.T) {
	var p Prom
	p.GaugeVec("hb_worker_up", "Worker dispatchability.", []Sample{
		{Labels: map[string]string{"worker": "http://w1"}, Value: 1},
		{Labels: map[string]string{"worker": "http://w2"}, Value: 0},
	})
	p.CounterVec("hb_worker_done_total", "Points completed.", []Sample{
		{Labels: map[string]string{"worker": "http://w1", "role": "fleet"}, Value: 12},
	})

	want := strings.Join([]string{
		"# HELP hb_worker_up Worker dispatchability.",
		"# TYPE hb_worker_up gauge",
		`hb_worker_up{worker="http://w1"} 1`,
		`hb_worker_up{worker="http://w2"} 0`,
		"# HELP hb_worker_done_total Points completed.",
		"# TYPE hb_worker_done_total counter",
		`hb_worker_done_total{role="fleet",worker="http://w1"} 12`,
		"",
	}, "\n")
	if got := p.String(); got != want {
		t.Errorf("Vec rendering mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
