package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/sim"
	"smallworld/xrand"
)

const (
	simN      = 2048
	simPreset = "lossy"
	// simChurnBurst is the number of membership events timed on the
	// standing protocol overlay after each call.
	simChurnBurst = 64
	// simMinArrived is the lossy preset's acceptance bar.
	simMinArrived = 0.99
)

func buildProtocol(ctx context.Context, seed uint64) (overlaynet.Dynamic, error) {
	ov, err := overlaynet.Build(ctx, "protocol", overlaynet.Options{N: simN, Seed: seed, Dist: keyDist})
	if err != nil {
		return nil, err
	}
	dyn, ok := ov.(overlaynet.Dynamic)
	if !ok {
		return nil, fmt.Errorf("protocol overlay is not dynamic")
	}
	return dyn, nil
}

// arrivalClock wraps the scenario's target function, which the engine
// calls once per query arrival, and records the wall time between
// consecutive arrivals: the cost of one query's share of the event
// loop, sampled per query from outside the engine. It consumes the
// random stream exactly as the wrapped function does.
type arrivalClock struct {
	last  time.Time
	armed bool
	gaps  samples
}

func (a *arrivalClock) wrap(inner sim.TargetFunc) sim.TargetFunc {
	return func(r *xrand.Stream) keyspace.Key {
		now := time.Now()
		if a.armed {
			a.gaps.add(now.Sub(a.last))
		}
		a.last, a.armed = now, true
		return inner(r)
	}
}

// simChurner times membership events on a standing protocol overlay
// directly: the per-event cost the engine pays inside every call.
type simChurner struct {
	ov  overlaynet.Dynamic
	rng *xrand.Stream
	n   int64
}

// burst applies simChurnBurst events, alternating join and leave.
func (c *simChurner) burst(ctx context.Context, lat *samples, tr *tracer, parent int64) error {
	for i := 0; i < simChurnBurst; i++ {
		name := "overlaynet.Join"
		t0 := time.Now()
		var err error
		if c.n%2 == 0 {
			err = c.ov.Join(ctx)
		} else {
			name = "overlaynet.Leave"
			err = c.ov.Leave(ctx, c.rng.Intn(c.ov.N()))
		}
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("membership event %d: %w", c.n, err)
		}
		c.n++
		lat.add(t1.Sub(t0))
		tr.record(name, 0, parent, -1, t0, t1)
	}
	return nil
}

// simFixture is one seed's simulation: the scenario with its arrival
// clock, and a standing protocol overlay for the churn bursts.
type simFixture struct {
	seed  uint64
	sc    sim.Scenario
	clock *arrivalClock
	ch    *simChurner
	// first is the Totals of the fixture's first call, which every
	// later call with the same seed must repeat.
	first *sim.Totals
}

func newSimFixture(ctx context.Context, seed uint64) (*simFixture, error) {
	ov, err := buildProtocol(ctx, seed)
	if err != nil {
		return nil, err
	}
	sc, err := sim.Preset(simPreset, simN)
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	f := &simFixture{seed: seed, sc: sc, clock: &arrivalClock{}, ch: &simChurner{ov: ov, rng: xrand.New(seed ^ churnSalt)}}
	f.sc.Load.Target = f.clock.wrap(sim.DataTargets(keyDist))
	return f, nil
}

// simPhase is what one measured phase of sim-lossy saw on one fixture.
// Each call is one window: its µs per query, its throughput (queries
// over overlay build plus call), its arrival gaps and the churn burst
// after it.
type simPhase struct {
	perQueryUS []float64 // per call: call time / queries in the call
	win        *windower
	gaps       *samples
	churn      samples
	calls      int64
	badCalls   int64
	queries    int64
	failures   int64
}

// runSimCall runs one sim.Run of the lossy preset with the fixture's
// seed on a freshly built protocol overlay, so every call of a fixture
// does identical work, checks its Totals against the fixture's first
// call, and follows it with a churn burst on the standing overlay.
func runSimCall(ctx context.Context, f *simFixture, ph *simPhase, tr *tracer, res *result) error {
	call := tr.begin()
	tb := time.Now()
	ov, err := buildProtocol(ctx, f.seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	f.clock.armed = false
	rep, err := sim.Run(ctx, ov, f.sc)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("sim.Run: %w", err)
	}
	tr.record("overlaynet.Build", 0, call, -1, tb, t0)
	tr.record("sim.Run", call, 0, -1, t0, t1)
	tot := rep.Totals
	ph.calls++
	ph.queries += int64(tot.Queries)
	ph.failures += int64(tot.Failures)
	if tot.Queries == 0 {
		return fmt.Errorf("sim.Run routed no queries")
	}
	ph.perQueryUS = append(ph.perQueryUS, float64(t1.Sub(t0).Nanoseconds())/1e3/float64(tot.Queries))
	if f.first == nil {
		f.first = &tot
	}
	bad := false
	if !reflect.DeepEqual(tot, *f.first) {
		res.problem("seed %d call %d: Totals differ from the first call with the same seed", f.seed, ph.calls)
		bad = true
	}
	if frac := float64(tot.Arrived) / float64(tot.Queries); frac < simMinArrived {
		res.problem("seed %d call %d: %.2f%% of queries arrived, need %.0f%%", f.seed, ph.calls, 100*frac, 100*simMinArrived)
		bad = true
	}
	if bad {
		ph.badCalls++
	}
	if err := f.ch.burst(ctx, &ph.churn, tr, call); err != nil {
		return err
	}
	ph.win.round(int64(tot.Queries), t1.Sub(tb))
	return nil
}

func runSimPhase(ctx context.Context, fs []*simFixture, until time.Time, ref *hostRef, tr *tracer, res *result) ([]*simPhase, error) {
	phases := make([]*simPhase, len(fs))
	for i, f := range fs {
		f.clock.gaps.reset()
		phases[i] = &simPhase{gaps: &f.clock.gaps}
		phases[i].win = newWindower(1, ref, phases[i].gaps, &phases[i].churn)
	}
	err := rotate(len(fs), until, func(i int) error { return runSimCall(ctx, fs[i], phases[i], tr, res) })
	return phases, err
}

func runSimLossy(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	fs, err := timedSetup(res, cfg, func(seed uint64) (*simFixture, error) { return newSimFixture(ctx, seed) }, func(*simFixture) {})
	if err != nil {
		return nil, err
	}
	res.e2e["heap_mb"] = heapMB()

	sm := startSteal()
	if !cfg.traced {
		phases, err := runSimPhase(ctx, fs, time.Now().Add(cfg.seconds), cfg.ref, nil, res)
		if err != nil {
			return nil, err
		}
		res.steal = sm.pct()
		var rate, p50, p99, churn []float64
		for i, ph := range phases {
			v99, tailWindows := ph.gaps.windowQuantileUS(0.99, ph.win)
			vc, churnWindows := ph.churn.windowQuantileUS(0.5, ph.win)
			v50 := ph.win.time(ph.perQueryUS)
			rate, p50, p99, churn = append(rate, ph.win.rate()), append(p50, v50), append(p99, v99), append(churn, vc)
			if ph.calls < minWindows || tailWindows < minWindows || churnWindows < minWindows {
				res.problem("fixture %d: %d calls, %d kept with a supported gap p99, %d with a churn p50; need %d", i, ph.calls, tailWindows, churnWindows, minWindows)
			}
			ph.fill(res, i)
			res.infof("fixture %d: %.4g query/s, %.3f us/query, gap p99 %.3f us, churn p50 %.3f us; arrival gaps %d, pooled p50 %.3f us p99 %.3f us",
				i, ph.win.rate(), v50, v99, vc, ph.gaps.len(), ph.gaps.quantileUS(0.5), ph.gaps.quantileUS(0.99))
			res.infof("fixture %d: raw us/query p50 %.3f (not divided by the host factor)", i, median(ph.perQueryUS))
			res.infof("fixture %d windows: %s", i, ph.win.spread())
		}
		res.e2e["ops_per_s"] = meanOf(rate)
		res.e2e["op_p50_us"] = meanOf(p50)
		res.e2e["op_p99_us"] = meanOf(p99)
		res.e2e["churn_p50_us"] = meanOf(churn)
		return res, nil
	}

	m0 := markMem()
	ref, err := runSimPhase(ctx, fs, time.Now().Add(cfg.phase(refShare)), cfg.ref, nil, res)
	if err != nil {
		return nil, err
	}
	var refQueries int64
	for i, ph := range ref {
		refQueries += ph.queries
		ph.fill(res, i)
	}
	recordRuntime(res, m0, markMem(), refQueries)
	ts := newTracers(1, 1)
	trc, err := runSimPhase(ctx, fs, time.Now().Add(cfg.phase(tracedShare+probeShare)), cfg.ref, ts[0], res)
	if err != nil {
		return nil, err
	}
	var msgs, retries, churn, degraded, failures, queries float64
	for i, ph := range trc {
		ph.fill(res, i)
		t := fs[i].first
		msgs += float64(t.TotalMessages)
		retries += float64(t.Retries)
		churn += float64(t.Joins + t.Leaves)
		degraded += float64(t.Degraded)
		failures += float64(t.Failures)
		queries += float64(t.Queries)
	}
	res.layer["sim.messages_per_query"] = msgs / queries
	res.layer["sim.retries_per_query"] = retries / queries
	res.layer["sim.churn_events_per_call"] = churn / float64(len(fs))
	res.layer["sim.degraded_pct"] = 100 * degraded / queries
	res.layer["sim.fail_pct"] = 100 * failures / queries
	res.steal = sm.pct()
	return res, finishTrace(res, cfg, "sim-lossy", ts, simP50(ref), simP50(trc))
}

// simP50 is the mean over phases of each phase's µs per query, read
// per window as the end-to-end op_p50_us is.
func simP50(phases []*simPhase) float64 {
	var xs []float64
	for _, ph := range phases {
		xs = append(xs, ph.win.time(ph.perQueryUS))
	}
	return meanOf(xs)
}

// fill counts the phase's calls against the result and reports the
// query-level failure share the lossy plane produced.
func (ph *simPhase) fill(res *result, fixture int) {
	res.attempted += ph.calls
	res.failed += ph.badCalls
	res.infof("fixture %d: calls %d queries %d (%d per call); query fail_pct %.4f%% (Totals.Failures over queries)",
		fixture, ph.calls, ph.queries, ph.queries/max(ph.calls, 1), 100*float64(ph.failures)/float64(max(ph.queries, 1)))
}
