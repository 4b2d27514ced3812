package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// latencyRegistry mirrors the detection-latency telemetry instruments that
// internal/online and internal/runtime register, with a deterministic window
// clock, so the exposition of the real instrument names is pinned end to end.
func latencyRegistry() *Registry {
	reg := New()
	w := reg.Window("online.detect_latency_ns", 256)
	w.nowFn = fakeClock(time.Unix(0, 0), 125*time.Millisecond)
	for _, v := range []int64{1500, 2500, 4000, 8000, 12000, 50000} {
		w.Observe(v)
	}
	h := reg.Histogram("online.detect_latency_hist_ns", DurationBuckets)
	for _, v := range []int64{1500, 2500, 4000, 8000, 12000, 50000} {
		h.Observe(v)
	}
	reg.Counter("online.settled").Add(6)
	reg.Gauge("runtime.queue_depth.node0").Set(3)
	reg.Gauge("runtime.recv_wait_ns.node0").Set(2500)
	rw := reg.Window("runtime.recv_wait_ns", 1024)
	rw.nowFn = fakeClock(time.Unix(0, 0), 50*time.Millisecond)
	for _, v := range []int64{900, 1100, 2500} {
		rw.Observe(v)
	}
	return reg
}

// TestPrometheusLatencyGolden pins the exposition of the detection-latency
// instrument set against testdata/latency.prom (regenerate with -update):
// the window must export as a summary (0.5/0.9/0.99 quantiles + _sum/_count
// + _rate gauge) and the histogram as cumulative le buckets.
func TestPrometheusLatencyGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := latencyRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "latency.prom")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("latency exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusLatencyShape asserts the structural requirements directly,
// independent of golden bytes: summary quantiles, rate gauge, sanitized
// per-node gauges, and the cumulative-bucket invariant for the
// DurationBuckets histogram.
func TestPrometheusLatencyShape(t *testing.T) {
	var buf bytes.Buffer
	if err := latencyRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`online_detect_latency_ns{quantile="0.5"}`,
		`online_detect_latency_ns{quantile="0.9"}`,
		`online_detect_latency_ns{quantile="0.99"}`,
		"online_detect_latency_ns_sum",
		"online_detect_latency_ns_count 6",
		"online_detect_latency_ns_rate",
		"# TYPE online_detect_latency_ns summary",
		"# TYPE online_detect_latency_hist_ns histogram",
		`online_detect_latency_hist_ns_bucket{le="+Inf"} 6`,
		"runtime_queue_depth_node0 3",
		"# TYPE runtime_recv_wait_ns summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}

	// Every line must still satisfy the 0.0.4 grammar.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable sample line: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Cumulative le buckets are monotone and end at _count.
	snap := latencyRegistry().Snapshot()
	h := snap.Histograms["online.detect_latency_hist_ns"]
	var cum int64
	prevLine := ""
	for i := range h.Bounds {
		cum += h.Counts[i]
		line := fmt.Sprintf(`online_detect_latency_hist_ns_bucket{le="%d"} %d`, h.Bounds[i], cum)
		if !strings.Contains(body, line) {
			t.Errorf("missing cumulative bucket line %q (after %q)", line, prevLine)
		}
		prevLine = line
	}
	if h.Count != 6 {
		t.Errorf("histogram count = %d, want 6", h.Count)
	}
}
