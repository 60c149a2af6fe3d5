package overlaynet

import (
	"math"
	"testing"

	"smallworld/keyspace"
	"smallworld/xrand"
)

// hopFixture is a ring holder at 0.1 routing toward 0.9 (distance 0.2
// after the fold) with five out-neighbours: two strict improvements,
// one worse node, and two ulp neighbours of the holder whose distance
// ties it exactly — one on the arc toward the target (it Advances),
// one on the far side (it does not).
func hopFixture(t *testing.T) (keys []keyspace.Key, row []int32, target keyspace.Key, dCur float64) {
	t.Helper()
	back := keyspace.Key(math.Nextafter(0.1, 0))
	fwd := keyspace.Key(math.Nextafter(0.1, 1))
	keys = []keyspace.Key{0.1, 0.95, 0.3, 0.0, back, fwd}
	row = []int32{1, 2, 3, 4, 5}
	target = 0.9
	topo := keyspace.Ring
	dCur = topo.Distance(keys[0], target)
	if topo.Distance(back, target) != dCur || topo.Distance(fwd, target) != dCur {
		t.Fatal("fixture: ulp neighbours do not tie the holder's distance")
	}
	return keys, row, target, dCur
}

// TestRobustHopSelect pins candidate selection: strict improvements
// and advancing exact ties only, dead-mask skipping, nearest first.
func TestRobustHopSelect(t *testing.T) {
	keys, row, target, dCur := hopFixture(t)
	pol := RobustPolicy{}.Resolved()
	cases := []struct {
		name string
		dead []bool
		want []int32 // slots in tried order
	}{
		{"all", nil, []int32{1, 3, 4}},
		{"masked", []bool{false, true, false, false, false, false}, []int32{3, 4}},
		{"none-live", []bool{false, true, true, true, true, true}, nil},
	}
	for _, tc := range cases {
		var h RobustHop
		h.Reset(&pol)
		n := h.Select(keyspace.Ring, row, keys, tc.dead, keys[0], target, dCur)
		if n != len(tc.want) || h.Selected() != (n > 0) {
			t.Fatalf("%s: %d candidates (selected %v), want %v", tc.name, n, h.Selected(), tc.want)
		}
		for i, slot := range tc.want {
			c := h.cands[i]
			if c.Slot != slot || c.Key != keys[slot] || row[c.J] != slot ||
				c.D != keyspace.Ring.Distance(keys[slot], target) {
				t.Fatalf("%s: candidate %d = %+v, want slot %d", tc.name, i, c, slot)
			}
		}
	}
}

// TestRobustHopTransitions drives the machine through scripted send
// failures: resends up to the budget with doubling backoff, then the
// next-best fallback, then the lost-vs-unreachable verdict once every
// candidate is used up — including the zero budget (Retries < 0).
func TestRobustHopTransitions(t *testing.T) {
	keys, row, target, dCur := hopFixture(t)
	type want struct {
		step HopStep
		wait float64
	}
	cases := []struct {
		name     string
		pol      RobustPolicy
		lost     []bool // one entry per failed send, in order
		steps    []want
		verdict  Outcome
		degraded []bool // Degraded after each failure
	}{
		{
			name: "retry-fallback-unreachable",
			pol:  RobustPolicy{HopTimeout: 1, Retries: 1, Backoff: 0.5, Jitter: -1},
			lost: []bool{false, false, false, false, false, false},
			steps: []want{
				{HopRetry, 0.5}, {HopFallback, 0},
				{HopRetry, 0.5}, {HopFallback, 0},
				{HopRetry, 0.5}, {HopExhausted, 0},
			},
			verdict:  Unroutable,
			degraded: []bool{true, true, true, true, true, true},
		},
		{
			name: "backoff-doubles-then-lost",
			pol:  RobustPolicy{HopTimeout: 1, Retries: 2, Backoff: 0.25, Jitter: -1},
			lost: []bool{false, false, true, false, false, false, false, false, false},
			steps: []want{
				{HopRetry, 0.25}, {HopRetry, 0.5}, {HopFallback, 0},
				{HopRetry, 0.25}, {HopRetry, 0.5}, {HopFallback, 0},
				{HopRetry, 0.25}, {HopRetry, 0.5}, {HopExhausted, 0},
			},
			verdict:  TimedOut,
			degraded: []bool{true, true, true, true, true, true, true, true, true},
		},
		{
			name:     "zero-budget",
			pol:      RobustPolicy{HopTimeout: 1, Retries: -1},
			lost:     []bool{false, false, false},
			steps:    []want{{HopFallback, 0}, {HopFallback, 0}, {HopExhausted, 0}},
			verdict:  Unroutable,
			degraded: []bool{true, true, true},
		},
		{
			name:     "zero-budget-last-lost",
			pol:      RobustPolicy{HopTimeout: 1, Retries: -1},
			lost:     []bool{false, false, true},
			steps:    []want{{HopFallback, 0}, {HopFallback, 0}, {HopExhausted, 0}},
			verdict:  TimedOut,
			degraded: []bool{true, true, true},
		},
	}
	for _, tc := range cases {
		pol := tc.pol.Resolved()
		rng := xrand.New(1)
		var h RobustHop
		h.Reset(&pol)
		if h.Select(keyspace.Ring, row, keys, nil, keys[0], target, dCur) != 3 {
			t.Fatalf("%s: fixture lost its candidates", tc.name)
		}
		if h.Degraded {
			t.Fatalf("%s: degraded before any failure", tc.name)
		}
		for i, lost := range tc.lost {
			idx, attempt := h.Index(), h.Attempt()
			step, wait := h.Fail(lost, rng)
			if step != tc.steps[i].step || wait != tc.steps[i].wait {
				t.Fatalf("%s: failure %d (cand %d, attempt %d) → %v wait %v, want %v wait %v",
					tc.name, i, idx, attempt, step, wait, tc.steps[i].step, tc.steps[i].wait)
			}
			if h.Degraded != tc.degraded[i] {
				t.Fatalf("%s: failure %d: degraded %v", tc.name, i, h.Degraded)
			}
		}
		if h.Selected() {
			t.Fatalf("%s: still selected after exhaustion", tc.name)
		}
		if got := h.Exhausted(); got != tc.verdict {
			t.Fatalf("%s: verdict %v, want %v", tc.name, got, tc.verdict)
		}
	}
}

// TestRobustHopJitter: a jittered wait stays within ±Jitter of its
// base and draws exactly one value from the stream per resend.
func TestRobustHopJitter(t *testing.T) {
	keys, row, target, dCur := hopFixture(t)
	pol := RobustPolicy{HopTimeout: 1, Retries: 3, Backoff: 1, Jitter: 0.25}.Resolved()
	var h RobustHop
	h.Reset(&pol)
	h.Select(keyspace.Ring, row, keys, nil, keys[0], target, dCur)
	rng, ref := xrand.New(9), xrand.New(9)
	for i, base := range []float64{1, 2, 4} {
		_, wait := h.Fail(false, rng)
		if want := base * (1 + 0.25*(2*ref.Float64()-1)); wait != want {
			t.Fatalf("resend %d: wait %v, want %v", i, wait, want)
		}
	}
}

// TestRobustHopStop pins the stop verdict.
func TestRobustHopStop(t *testing.T) {
	cases := []struct {
		dCur, dNearest, dLive float64
		degraded              bool
		want                  Outcome
	}{
		{0.1, 0.1, -1, false, Delivered},
		{0.1, 0.1, -1, true, DeliveredDegraded},
		{0.2, 0.1, 0.2, false, DeliveredDegraded}, // responsible node dead
		{0.3, 0.1, 0.2, false, Unroutable},
		{0.2, 0.1, -1, false, Unroutable}, // no liveness known
		{0.1, -1, -1, false, Unroutable},  // no nearest known
	}
	pol := RobustPolicy{}.Resolved()
	for i, tc := range cases {
		var h RobustHop
		h.Reset(&pol)
		h.Degraded = tc.degraded
		if got := h.Stop(tc.dCur, tc.dNearest, tc.dLive); got != tc.want {
			t.Errorf("case %d %+v: %v, want %v", i, tc, got, tc.want)
		}
	}
}
