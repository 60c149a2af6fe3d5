package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.6, 34}, {0.99, 49.6}, {1, 50},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample quantile = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestSamplesQuantileUS(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i) * time.Microsecond)
	}
	if got := s.quantileUS(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("p50 = %v us, want 50.5", got)
	}
	s.add(-time.Second) // clamps to zero rather than wrapping
	if got := s.quantileUS(0); got != 0 {
		t.Errorf("min after negative sample = %v, want 0", got)
	}
	var empty samples
	if got := empty.quantileUS(0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

// TestTenBeyondRule pins the reporting rule: a percentile is reported
// only with at least ten samples above it, so p99 needs about 900.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10}, {999, 0.99, 10}, {998, 0.99, 10}, {902, 0.99, 10},
		{900, 0.99, 9}, {100, 0.99, 1}, {20, 0.5, 10}, {19, 0.5, 9}, {0, 0.99, 0}, {1, 0.5, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if got := supported(c.n, c.q); got != (c.want >= minBeyond) {
			t.Errorf("supported(%d, %v) = %v", c.n, c.q, got)
		}
	}
	// The samples counted beyond are exactly those above the lower
	// order statistic the quantile interpolates from.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	p99 := quantile(xs, 0.99)
	above := 0
	for _, x := range xs {
		if x > p99 {
			above++
		}
	}
	if above != beyond(len(xs), 0.99) {
		t.Errorf("%d samples above p99, beyond says %d", above, beyond(len(xs), 0.99))
	}
}

const statSample = `cpu  4705 150 1120 1644538 3 0 29 812 0 0
cpu0 2361 75 565 822291 1 0 15 400 0 0
cpu1 2344 75 555 822247 2 0 14 412 0 0
intr 1462898
`

func TestParseCPUStat(t *testing.T) {
	st, err := parseCPUStat(strings.NewReader(statSample))
	if err != nil {
		t.Fatal(err)
	}
	if st.steal != 812 {
		t.Errorf("steal = %d, want 812", st.steal)
	}
	if want := uint64(4705 + 150 + 1120 + 1644538 + 3 + 0 + 29 + 812); st.total != want {
		t.Errorf("total = %d, want %d (guest time is inside user)", st.total, want)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x 0 0\n"} {
		if _, err := parseCPUStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseCPUStat(%q) accepted malformed input", bad)
		}
	}
}

func TestStealPct(t *testing.T) {
	a := cpuStat{steal: 100, total: 10000}
	b := cpuStat{steal: 150, total: 11000}
	if got := stealPct(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("steal share = %v%%, want 5%%", got)
	}
	if got := stealPct(a, a); got != 0 {
		t.Errorf("no elapsed ticks gave %v%%, want 0", got)
	}
	if got := stealPct(b, a); got != 0 {
		t.Errorf("counters going backwards gave %v%%, want 0", got)
	}
}

func TestDecomposition(t *testing.T) {
	d := decomposition{routeUS: 3, frames: 2.5, codecNS: 40, sendNS: 260, handoffUS: 0.7, clientUS: 8}
	// 3 + 2.5 × (0.04 + 0.26 + 0.7) = 5.5
	if got := d.layersUS(); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("layers = %v us, want 5.5", got)
	}
	if got := d.residualUS(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("residual = %v us, want 2.5", got)
	}
	if s := d.String(); !strings.Contains(s, "residual 2.500 us (31.2%)") {
		t.Errorf("decomposition line %q does not state the residual", s)
	}
	// Layers that overshoot the end-to-end time leave a negative
	// residual rather than being clipped.
	d.clientUS = 5
	if got := d.residualUS(); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("residual = %v us, want -0.5", got)
	}
}

func TestLeastStolen(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []bool
	}{
		{[]float64{0, 3, 1, 0, 20}, []bool{true, false, true, true, false}},
		{[]float64{5, 5, 5}, []bool{true, true, true}},
		{[]float64{-1, -1}, []bool{true, true}}, // no /proc/stat: keep all
		{nil, []bool{}},
	} {
		if got := leastStolen(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("leastStolen(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestWindows pins how a run's timing is read: per window, divided by
// the window's host factor, then the median across the kept windows,
// skipping windows too small to support the per-window quantile.
func TestWindows(t *testing.T) {
	var s samples
	for _, us := range []int{10, 30, 20} {
		for i := 0; i < 100; i++ {
			s.add(time.Duration(us) * time.Microsecond)
		}
		s.cut()
	}
	s.cut() // an empty window
	for i := 0; i < 5; i++ {
		s.add(time.Second) // a short window: its p50 has 2 samples beyond
	}
	s.cut()
	w := &windower{steal: []float64{0, 0, 0, 0, 0}, host: []float64{1, 1, 1, 1, 1}}
	if got, n := s.windowQuantileUS(0.5, w); n != 3 || math.Abs(got-20) > 1e-9 {
		t.Errorf("window p50 = %v us over %d windows, want the median 20 over 3", got, n)
	}
	w.steal[1] = 9 // a stolen window is dropped
	if got, n := s.windowQuantileUS(0.5, w); n != 2 || math.Abs(got-15) > 1e-9 {
		t.Errorf("window p50 without the stolen window = %v us over %d, want 15 over 2", got, n)
	}
	w.steal[1], w.host[2] = 0, 4 // a slow host divides its window's time
	if got, _ := s.windowQuantileUS(0.5, w); math.Abs(got-10) > 1e-9 {
		t.Errorf("window p50 with a 4x host factor on the 20 us window = %v us, want the median of 10, 30, 5", got)
	}
	if _, n := s.windowQuantileUS(0.99, w); n != 0 {
		t.Errorf("%d windows of 100 samples support a p99", n)
	}

	// A window closes after exactly its rounds, whatever their wall
	// time; the rounds the run's end leaves short make no window.
	r := newWindower(3, newHostRef())
	closed := 0
	for i := 0; i < 7; i++ {
		if r.round(10, time.Millisecond) {
			closed++
		}
	}
	if want := []float64{10000, 10000}; closed != 2 || !slices.Equal(r.rates, want) || len(r.host) != 2 {
		t.Errorf("round windows = %v (%d closed, %d host factors), want %v", r.rates, closed, len(r.host), want)
	}
	r.rates = []float64{100, 500, 200, 400, 300}
	r.steal = []float64{0, 0, 9, 0, 7} // as if read from /proc/stat
	r.host = []float64{1, 1, 1, 1, 2}
	if got := r.rate(); got != 400 {
		t.Errorf("rate = %v, want 400, the median of the unstolen windows 100, 500, 400", got)
	}
	r.steal[4] = 0 // the 300 op/s window on a host at half speed counts as 600
	if got := r.rate(); got != 450 {
		t.Errorf("rate = %v, want 450, the median of 100, 500, 400, 600", got)
	}

	// Without a reference, a window is divided by the stretch its
	// stolen time gave it: 20% stolen is 1.25 times slower.
	if got := (&windower{}).hostFactor(20); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("steal factor = %v, want 1.25", got)
	}
	if got := (&windower{}).hostFactor(-1); got != 1 {
		t.Errorf("factor without /proc/stat = %v, want 1", got)
	}

	// A recorder's samples after its last cut belong to no window.
	var tail samples
	rw := newWindower(1, nil, &tail)
	for i := 0; i < 20; i++ {
		tail.add(time.Microsecond)
	}
	rw.round(1, time.Millisecond)
	rw.host[0] = 1 // whatever the host stole meanwhile
	for i := 0; i < 20; i++ {
		tail.add(time.Second)
	}
	if got, n := tail.windowQuantileUS(0.5, rw); n != 1 || got != 1 {
		t.Errorf("window p50 = %v us over %d windows, want 1 over 1: the unclosed tail was read", got, n)
	}
}

// TestHostFactor checks that the reference work measures something:
// a factor that is positive and finite, and that repeats within the
// host's noise when measured twice in a row.
func TestHostFactor(t *testing.T) {
	h := newHostRef()
	a, b := h.factor(), h.factor()
	for _, f := range []float64{a, b} {
		if !(f > 0) || math.IsInf(f, 0) {
			t.Fatalf("host factor %v", f)
		}
	}
	if a/b > 3 || b/a > 3 {
		t.Errorf("two factors in a row differ more than threefold: %v, %v", a, b)
	}
}
