package overlaynet

import (
	"context"
	"fmt"
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/netmodel"
)

// robustTally folds a run of RobustResults into per-outcome counts and
// sums of every numeric field. Latency enters as the (wrapping) sum of
// its IEEE bit patterns, so a one-ulp drift in any query shows.
type robustTally struct {
	Outcomes   [4]int
	Hops       int
	Retries    int
	Dest       int
	LatencyBit uint64
}

func (g *robustTally) add(res RobustResult) {
	g.Outcomes[res.Outcome]++
	g.Hops += res.Hops
	g.Retries += res.Retries
	g.Dest += res.Dest
	g.LatencyBit += math.Float64bits(res.Latency)
}

// goldenPlane is the hostile plane every robust golden routes over:
// loss, slow and dead nodes, byzantine relays, and a key-space cut.
func goldenPlane(t *testing.T) *netmodel.Model {
	t.Helper()
	m, err := netmodel.New(netmodel.Config{
		Loss: 0.05, SlowFrac: 0.1, DeadFrac: 0.05, ByzantineFrac: 0.05,
	}, 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPartition(netmodel.Partition{Cuts: []float64{0.3, 0.6}}); err != nil {
		t.Fatal(err)
	}
	return m
}

// routeGolden routes a fixed query set through rr and tallies it.
func routeGolden(rr *RobustRouter, ov Overlay, seed uint64) robustTally {
	srcs, targets := robustPairs(NewSnapshot(ov), seed, 1500)
	var g robustTally
	for i := range srcs {
		g.add(rr.RouteRobust(srcs[i], targets[i]))
	}
	return g
}

// TestRobustRouterGolden pins RobustRouter's exact answers on a fixed
// seed — outcome counts and the summed hops, retries, destinations and
// latency bits — over both executors of the walk: a published snapshot
// carrying a fault mask (rank-index classification, mask-skipped
// candidates) and a generic overlay (linear-scan classification,
// oracle-only liveness). Each row also runs under a zero retry budget
// with an end-to-end deadline. Any change to candidate order, the
// retry/backoff draws or the stop verdict moves these numbers.
func TestRobustRouterGolden(t *testing.T) {
	ctx := context.Background()
	policies := []RobustPolicy{{}, {Retries: -1, QueryTimeout: 0.08}}
	want := map[string]robustTally{
		"snapshot/default": {Outcomes: [4]int{570, 321, 16, 593}, Hops: 6160, Retries: 8012, Dest: 571103, LatencyBit: 0x90dfbe2e051a1f79},
		"snapshot/budget0": {Outcomes: [4]int{564, 144, 620, 172}, Hops: 4952, Retries: 0, Dest: 546361, LatencyBit: 0x15573c598539c9c1},
		"overlay/default":  {Outcomes: [4]int{403, 384, 80, 633}, Hops: 6222, Retries: 13877, Dest: 421852, LatencyBit: 0x789eaa7c626dc171},
		"overlay/budget0":  {Outcomes: [4]int{413, 99, 892, 96}, Hops: 4125, Retries: 0, Dest: 392064, LatencyBit: 0xbbe9c8c36a795ea6},
	}
	got := map[string]robustTally{}
	for pi, pol := range policies {
		name := []string{"default", "budget0"}[pi]

		dyn, err := NewIncremental(ctx, "smallworld-skewed", Options{
			N: 512, Seed: 5, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		pub, err := NewPublisher(dyn)
		if err != nil {
			t.Fatal(err)
		}
		m := goldenPlane(t)
		pub.SetFaultPlane(m)
		snap := pub.Snapshot()
		rr, err := NewRobustRouter(snap, m, pol, 17)
		if err != nil {
			t.Fatal(err)
		}
		got["snapshot/"+name] = routeGolden(rr, snap, 3)

		ov, err := Build(ctx, "smallworld-skewed", Options{
			N: 384, Seed: 6, Dist: dist.NewPower(0.7), Topology: keyspace.Line,
		})
		if err != nil {
			t.Fatal(err)
		}
		rr, err = NewRobustRouter(ov, goldenPlane(t), pol, 19)
		if err != nil {
			t.Fatal(err)
		}
		got["overlay/"+name] = routeGolden(rr, ov, 4)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %s\nwant %+v", name, fmt.Sprintf("%#v", g), w)
		}
	}
}

// TestRouteZeroAllocs pins the serving-path allocation contract: once
// warm, RouteRobust over a lossy plane — retries, backoff draws,
// fallbacks and all — and SnapshotRouter.Route on either geometry
// allocate nothing.
func TestRouteZeroAllocs(t *testing.T) {
	s := robustSnapshot(t, 512)
	m, err := netmodel.New(netmodel.Config{Loss: 0.05, DeadFrac: 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRobustRouter(s, m, RobustPolicy{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	line, err := Build(context.Background(), "smallworld-skewed", Options{
		N: 512, Seed: 6, Dist: dist.NewPower(0.7), Topology: keyspace.Line,
	})
	if err != nil {
		t.Fatal(err)
	}
	ringR, lineR := s.NewRouter(), NewSnapshot(line).NewRouter()
	srcs, targets := robustPairs(s, 4, 256)
	routes := map[string]func(int, keyspace.Key){
		"robust/lossy":  func(u int, k keyspace.Key) { rr.RouteRobust(u, k) },
		"snapshot/ring": func(u int, k keyspace.Key) { ringR.Route(u, k) },
		"snapshot/line": func(u int, k keyspace.Key) { lineR.Route(u, k) },
	}
	for name, route := range routes {
		for i := range srcs {
			route(srcs[i], targets[i])
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			route(srcs[i%len(srcs)], targets[i%len(srcs)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: warm route %.2f allocs/op, want 0", name, allocs)
		}
	}
}
