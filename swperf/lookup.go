package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/overlaynet/shard"
	"smallworld/wire"
	"smallworld/xrand"
)

const (
	// lookupN is the population of both lookup workloads, so that
	// lookup-local is lookup-wire's K=0 floor. Its routing working set
	// (about 1.4 MB of adjacency and keys) stays inside a core's L2:
	// beyond it, the host's memory contention moved a route's p50 by
	// up to 85% within twenty minutes.
	lookupN      = 1 << 14
	wireShards   = 4
	wireClients  = 2
	roundQueries = 256 // per client between two churn events
	// publishEvery is the Publisher's epoch boundary, set explicitly so
	// windows can hold whole multiples of it.
	publishEvery = 64
	// wireWindowRounds makes a lookup-wire window about 0.5 s.
	wireWindowRounds = 2 * publishEvery
	localBlock       = 4096
	// localWindowBlocks makes a lookup-local routing window about
	// 0.5 s; localWindowEvents makes the churn window that follows it
	// about 0.1 s, so churn takes about a sixth of the run.
	localWindowBlocks = 48
	localWindowEvents = 16 * publishEvery
	poolSize          = 1 << 16
	// checkEvery samples answers for the correctness gate; odd, so the
	// sampled positions walk across rounds and blocks.
	checkEvery = 61
	// replayQueries is the fixed query set of the layer probes and of
	// the seed-exact counts.
	replayQueries = 8192
	// minWindows is the fewest kept windows each fixture must read its
	// timings from.
	minWindows = 3
	// probeAddr is the benchmark's own wire endpoint for the handoff
	// probe, far above the shard and client addresses.
	probeAddr = wire.Addr(1 << 20)

	querySalt = 0x9e3779b97f4a7c15
	churnSalt = 0xc2b2ae3d27d4eb4f
)

// keyDist is the skewed identifier density of every workload; query
// targets are drawn from it too, the paper's setting.
var keyDist = dist.NewPower(0.7)

// query is one generated lookup: the source as a fraction of the live
// population (so it stays valid as churn moves N) and the target key.
type query struct {
	u      float64
	target keyspace.Key
}

func (q query) src(n int) int { return int(q.u * float64(n)) }

func makeQueries(seed uint64) []query {
	r := xrand.New(seed ^ querySalt)
	qs := make([]query, poolSize)
	for i := range qs {
		qs[i] = query{u: r.Float64(), target: dist.Sample(keyDist, r)}
	}
	return qs
}

// buildServing builds the skewed small-world overlay on the ring and
// the Publisher that serves its snapshots.
func buildServing(ctx context.Context, n int, seed uint64) (*overlaynet.Publisher, error) {
	dyn, err := overlaynet.NewIncremental(ctx, "smallworld-skewed", overlaynet.Options{
		N: n, Seed: seed, Dist: keyDist, Topology: keyspace.Ring,
	})
	if err != nil {
		return nil, err
	}
	return overlaynet.NewPublisher(dyn, overlaynet.PublishEvery(publishEvery))
}

// churner applies membership events, alternating join and leave so the
// population stays near its start. It times the Publisher call alone,
// split by whether the call crossed an epoch boundary.
type churner struct {
	pub            *overlaynet.Publisher
	rng            *xrand.Stream
	n              int64
	event, publish samples
}

func newChurner(pub *overlaynet.Publisher, seed uint64) *churner {
	return &churner{pub: pub, rng: xrand.New(seed ^ churnSalt)}
}

// step applies one event and returns the span name of the call.
func (c *churner) step(ctx context.Context) (string, error) {
	e0 := c.pub.Epoch()
	name := "publisher.Join"
	t0 := time.Now()
	var err error
	if c.n%2 == 0 {
		err = c.pub.Join(ctx)
	} else {
		name = "publisher.Leave"
		err = c.pub.Leave(ctx, c.rng.Intn(c.pub.LiveN()))
	}
	d := time.Since(t0)
	if err != nil {
		return name, fmt.Errorf("membership event %d: %w", c.n, err)
	}
	c.n++
	if c.pub.Epoch() != e0 {
		c.publish.add(d)
	} else {
		c.event.add(d)
	}
	return name, nil
}

func (c *churner) resetTimes() {
	c.event.reset()
	c.publish.reset()
}

// replay walks one query with the exported step kernel
// (GreedyInit/GreedyStep), the loop the overlaynet.step_ns probe
// times.
func replay(s *overlaynet.Snapshot, src int, target keyspace.Key) overlaynet.Result {
	d, ok := s.GreedyInit(src, target)
	if !ok {
		return overlaynet.Result{Dest: -1}
	}
	cur, hops := src, 0
	for guard := s.GreedyGuard(); hops < guard; hops++ {
		next, dNext := s.GreedyStep(cur, d, target)
		if next == -1 {
			break
		}
		cur, d = next, dNext
	}
	return overlaynet.Result{Hops: hops, Dest: cur, Arrived: s.GreedyArrived(d, target)}
}

// routeCheck is one sampled answer, verified after its round.
type routeCheck struct {
	src    int
	target keyspace.Key
	got    overlaynet.Result
}

// checker verifies sampled answers against the benchmark's own oracle
// (see oracle.go), built once per snapshot.
type checker struct {
	snap        *overlaynet.Snapshot
	ora         *oracle
	wrong, ties int
	first       string
}

func (c *checker) check(snap *overlaynet.Snapshot, rc routeCheck) {
	if snap != c.snap {
		c.snap, c.ora = snap, newOracle(snap)
	}
	if why := c.ora.check(rc.src, rc.target, rc.got, &c.ties); why != "" {
		if c.wrong == 0 {
			c.first = why
		}
		c.wrong++
	}
}

// lookupPhase is what one measured phase of a lookup workload saw on
// one fixture. Its recorders are cut into windows by win (ops) and
// churnWin (churn events; the same windower when churn happens between
// rounds).
type lookupPhase struct {
	lat, churn    samples
	win, churnWin *windower
	ops, fails    int64
	// mismatches counts sampled answers that differ from the
	// in-process router on the same snapshot.
	mismatches int
	checks     checker
}

// newLookupPhase returns a phase whose churn happens between rounds,
// windowed every roundsPerWindow rounds.
func newLookupPhase(roundsPerWindow int, ref *hostRef) *lookupPhase {
	p := &lookupPhase{}
	p.win = newWindower(roundsPerWindow, ref, &p.lat, &p.churn)
	p.churnWin = p.win
	return p
}

func newLookupPhases(n, roundsPerWindow int, ref *hostRef) []*lookupPhase {
	ps := make([]*lookupPhase, n)
	for i := range ps {
		ps[i] = newLookupPhase(roundsPerWindow, ref)
	}
	return ps
}

// fillLookup reports the end-to-end metrics of phases, one per
// fixture: each metric is the mean of the fixtures' values, and each
// fixture's value is read per window (see windower).
func fillLookup(res *result, phases []*lookupPhase) {
	var rate, p50, p99, churn []float64
	for i, p := range phases {
		v50, n50 := p.lat.windowQuantileUS(0.50, p.win)
		v99, n99 := p.lat.windowQuantileUS(0.99, p.win)
		vc, nc := p.churn.windowQuantileUS(0.50, p.churnWin)
		rate, p50, p99, churn = append(rate, p.win.rate()), append(p50, v50), append(p99, v99), append(churn, vc)
		if n50 < minWindows || n99 < minWindows || nc < minWindows {
			res.problem("fixture %d: %d kept windows support the op p50, %d the op p99 and %d the churn p50; need %d", i, n50, n99, nc, minWindows)
		}
		res.attempted += p.ops
		res.failed += p.fails
		checkPhase(res, i, p)
		res.infof("fixture %d: ops %d failed %d, %d windows; op/s %.4g, op p50 %.3f us, p99 %.3f us, churn p50 %.3f us over %d events",
			i, p.ops, p.fails, p.win.windows(), p.win.rate(), v50, v99, vc, p.churn.len())
		res.infof("fixture %d: raw op p50 %.3f us, p99 %.3f us, churn p50 %.3f us (pooled, not divided by the host factor)",
			i, p.lat.quantileUS(0.5), p.lat.quantileUS(0.99), p.churn.quantileUS(0.5))
		res.infof("fixture %d windows: %s", i, p.win.spread())
	}
	res.e2e["ops_per_s"] = meanOf(rate)
	res.e2e["op_p50_us"] = meanOf(p50)
	res.e2e["op_p99_us"] = meanOf(p99)
	res.e2e["churn_p50_us"] = meanOf(churn)
}

// checkPhase turns a phase's wrong answers into failed checks.
func checkPhase(res *result, fixture int, p *lookupPhase) {
	if p.mismatches > 0 {
		res.problem("fixture %d: %d sampled answers differ from the in-process SnapshotRouter", fixture, p.mismatches)
	}
	if c := p.checks; c.wrong > 0 {
		res.problem("fixture %d: %d sampled answers disagree with the oracle, first: %s", fixture, c.wrong, c.first)
	}
}

// checkedTies sums the sampled answers whose path the oracle could not
// compare because of an exact distance tie.
func checkedTies(phases ...[]*lookupPhase) int {
	n := 0
	for _, ps := range phases {
		for _, p := range ps {
			n += p.checks.ties
		}
	}
	return n
}

// phaseOps sums the ops of phases.
func phaseOps(phases []*lookupPhase) int64 {
	var n int64
	for _, p := range phases {
		n += p.ops
	}
	return n
}

// phaseP50 is the mean over phases of each phase's op p50, read per
// window as the end-to-end op_p50_us is, so that the tracing overhead
// compares like with like and the host factor divides both sides.
func phaseP50(phases []*lookupPhase) float64 {
	var xs []float64
	for _, p := range phases {
		v, _ := p.lat.windowQuantileUS(0.5, p.win)
		xs = append(xs, v)
	}
	return meanOf(xs)
}

// ---- lookup-wire ----

type wireFixture struct {
	pub     *overlaynet.Publisher
	tr      *wire.ChanTransport
	cluster *shard.Cluster
	clients []*shard.Client
	ch      *churner
	// snap0 is the snapshot before any churn, for the layer probes.
	snap0  *overlaynet.Snapshot
	cursor int
}

func newWireFixture(ctx context.Context, seed uint64) (*wireFixture, error) {
	pub, err := buildServing(ctx, lookupN, seed)
	if err != nil {
		return nil, err
	}
	f := &wireFixture{pub: pub, tr: wire.NewChan(), ch: newChurner(pub, seed), snap0: pub.Snapshot()}
	if f.cluster, err = shard.New(pub, shard.Config{Shards: wireShards, Transport: f.tr}); err != nil {
		f.tr.Close()
		return nil, err
	}
	for i := 0; i < wireClients; i++ {
		cl, err := f.cluster.NewClient()
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
	}
	return f, nil
}

// close stops the cluster and the transport's drain goroutines.
func (f *wireFixture) close() {
	f.cluster.Close()
	f.tr.Close()
}

func closeWire(fs []*wireFixture) {
	for _, f := range fs {
		f.close()
	}
}

type wireClientState struct {
	lat    samples
	fails  int64
	checks []routeCheck
	tr     *tracer
}

type wireJob struct {
	base  int
	round int64
}

// runWireWindow drives both clients of f in closed loop for one window
// of wireWindowRounds rounds: each round every client routes
// roundQueries queries against the pinned epoch, then one membership
// event is applied and both clients rebind. ts is nil untraced, else
// one tracer for the coordinator plus one per client.
func runWireWindow(ctx context.Context, f *wireFixture, ph *lookupPhase, qs []query, ts []*tracer) error {
	states := make([]*wireClientState, len(f.clients))
	jobs := make([]chan wireJob, len(f.clients))
	done := make(chan struct{}, len(f.clients)) // one completion per client per round
	var wg sync.WaitGroup
	var main *tracer
	if ts != nil {
		main = ts[0]
	}
	for i, cl := range f.clients {
		st := &wireClientState{}
		if ts != nil {
			st.tr = ts[i+1]
		}
		states[i], jobs[i] = st, make(chan wireJob)
		wg.Add(1)
		go func(cl *shard.Client, st *wireClientState, jobs <-chan wireJob) {
			defer wg.Done()
			for job := range jobs {
				n := cl.Pinned().N()
				st.checks = st.checks[:0]
				for k := 0; k < roundQueries; k++ {
					op := job.base + k
					q := qs[op%len(qs)]
					src := q.src(n)
					t0 := time.Now()
					r := cl.Route(src, q.target)
					t1 := time.Now()
					st.lat.add(t1.Sub(t0))
					st.tr.record("shard.Client.Route", 0, job.round, int64(op), t0, t1)
					if r.Dest == -1 || !r.Arrived {
						st.fails++
					}
					if op%checkEvery == 0 {
						st.checks = append(st.checks, routeCheck{src, q.target, r})
					}
				}
				done <- struct{}{}
			}
		}(cl, st, jobs[i])
	}
	defer func() {
		for _, j := range jobs {
			close(j)
		}
		wg.Wait()
		for _, st := range states {
			ph.fails += st.fails
		}
	}()

	ref := &overlaynet.SnapshotRouter{}
	for closed := false; !closed; {
		snap := f.clients[0].Pinned()
		round := main.begin()
		t0 := time.Now()
		for i := range jobs {
			jobs[i] <- wireJob{base: f.cursor + i*roundQueries, round: round}
		}
		for range jobs {
			<-done
		}
		tq := time.Now()
		f.cursor += len(jobs) * roundQueries
		ops := int64(len(jobs) * roundQueries)
		ph.ops += ops

		ref.Rebind(snap)
		for _, st := range states {
			for _, c := range st.checks {
				if want := ref.Route(c.src, c.target); want != c.got {
					ph.mismatches++
				}
				ph.checks.check(snap, c)
			}
		}

		tc := time.Now()
		name, err := f.ch.step(ctx)
		if err != nil {
			return err
		}
		tj := time.Now()
		s := f.pub.Snapshot()
		for _, cl := range f.clients {
			cl.Rebind(s)
		}
		te := time.Now()
		main.record(name, 0, round, -1, tc, tj)
		main.record("shard.Client.Rebind", 0, round, -1, tj, te)
		main.record("round", round, 0, -1, t0, te)
		ph.churn.add(te.Sub(tc))
		for _, st := range states {
			ph.lat.merge(&st.lat)
			st.lat.reset()
		}
		closed = ph.win.round(ops, tq.Sub(t0)+te.Sub(tc))
	}
	return nil
}

// runWirePhase rotates whole windows over the fixtures until the
// deadline and returns one phase per fixture.
func runWirePhase(ctx context.Context, fs []*wireFixture, qs []query, until time.Time, ts []*tracer) ([]*lookupPhase, error) {
	phases := newLookupPhases(len(fs), wireWindowRounds, nil)
	err := rotate(len(fs), until, func(i int) error { return runWireWindow(ctx, fs[i], phases[i], qs, ts) })
	return phases, err
}

func runLookupWire(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	fs, err := timedSetup(res, cfg, func(seed uint64) (*wireFixture, error) { return newWireFixture(ctx, seed) }, (*wireFixture).close)
	if err != nil {
		return nil, err
	}
	defer closeWire(fs)
	res.e2e["heap_mb"] = heapMB()
	qs := makeQueries(cfg.seed)

	sm := startSteal()
	if !cfg.traced {
		phases, err := runWirePhase(ctx, fs, qs, time.Now().Add(cfg.seconds), nil)
		if err != nil {
			return nil, err
		}
		res.steal = sm.pct()
		fillLookup(res, phases)
		res.infof("oracle: %d sampled answers not path-compared for an exact distance tie", checkedTies(phases))
		return res, nil
	}

	m0 := markMem()
	ref, err := runWirePhase(ctx, fs, qs, time.Now().Add(cfg.phase(refShare)), nil)
	if err != nil {
		return nil, err
	}
	refOps := phaseOps(ref)
	recordRuntime(res, m0, markMem(), refOps)
	for _, f := range fs {
		f.ch.resetTimes()
	}
	ts := newTracers(1+wireClients, sampleEvery(tracedOps(refOps, wireClients)))
	trc, err := runWirePhase(ctx, fs, qs, time.Now().Add(cfg.phase(tracedShare)), ts)
	if err != nil {
		return nil, err
	}
	churnTimes(res, fs)
	for i := range ref {
		res.attempted += ref[i].ops + trc[i].ops
		res.failed += ref[i].fails + trc[i].fails
		checkPhase(res, i, ref[i])
		checkPhase(res, i, trc[i])
	}
	res.layer["shard.timeouts"] = float64(res.failed)

	f := fs[0]
	probe := newProbeClock(cfg.phase(probeShare))
	routeUS := probeLookups(res, f.snap0, qs[:replayQueries], probe)
	codec := probeCodec(probe.until(0.1))
	send, handoff, err := probePing(f.tr, probe.until(0.3))
	if err != nil {
		return nil, err
	}
	frames, bytes, cross, err := probeWireCounts(f, f.snap0, qs[:replayQueries])
	if err != nil {
		return nil, err
	}
	res.layer["wire.codec_ns"] = codec
	res.layer["wire.send_ns"] = send.quantileUS(0.5) * 1e3
	res.layer["wire.handoff_p50_us"] = handoff.quantileUS(0.5)
	res.layer["wire.handoff_p99_us"] = handoff.quantileUS(0.99)
	res.layer["wire.frames_per_op"] = frames
	res.layer["wire.bytes_per_op"] = bytes
	res.layer["shard.crossings_per_op"] = cross
	dec := decomposition{
		routeUS: routeUS, frames: frames, codecNS: codec, sendNS: res.layer["wire.send_ns"],
		handoffUS: res.layer["wire.handoff_p50_us"], clientUS: ref[0].lat.quantileUS(0.5),
	}
	res.layer["shard.residual_us"] = dec.residualUS()
	res.infof("decomposition (p50 per query, fixture 0): %s", dec)
	res.steal = sm.pct()
	return res, finishTrace(res, cfg, "lookup-wire", ts, phaseP50(ref), phaseP50(trc))
}

// tracedOps estimates how many ops one of tracers op tracers sees in
// the traced phase, from the reference phase's refOps, with a quarter
// to spare.
func tracedOps(refOps int64, tracers int) float64 {
	return 1.25 * float64(refOps) / float64(tracers) * tracedShare / refShare
}

// churnTimes records the Publisher's per-event costs over every
// fixture's churner since its last reset.
func churnTimes(res *result, fs []*wireFixture) {
	var event, publish samples
	for _, f := range fs {
		event.merge(&f.ch.event)
		publish.merge(&f.ch.publish)
	}
	res.layer["publisher.event_p50_us"] = event.quantileUS(0.5)
	res.layer["publisher.publish_event_p50_us"] = publish.quantileUS(0.5)
}

// ---- lookup-local ----

type localFixture struct {
	pub    *overlaynet.Publisher
	ch     *churner
	snap0  *overlaynet.Snapshot
	cursor int
}

// newLocalPhases returns one phase per fixture, routing windows of
// localWindowBlocks blocks and churn windows of localWindowEvents
// events.
func newLocalPhases(n int, ref *hostRef) []*lookupPhase {
	ps := make([]*lookupPhase, n)
	for i := range ps {
		p := &lookupPhase{}
		p.win, p.churnWin = newWindower(localWindowBlocks, ref, &p.lat), newWindower(localWindowEvents, ref, &p.churn)
		ps[i] = p
	}
	return ps
}

// runLocalWindow routes one window of localWindowBlocks blocks on one
// goroutine against the fixture's current snapshot, then applies one
// window of localWindowEvents membership events, timing each with the
// router's rebind. Routing never overlaps churn.
func runLocalWindow(ctx context.Context, f *localFixture, ph *lookupPhase, qs []query, tr *tracer) error {
	sr := &overlaynet.SnapshotRouter{}
	snap := f.pub.Snapshot()
	sr.Rebind(snap)
	n := snap.N()
	var checks []routeCheck
	for closed := false; !closed; {
		block := tr.begin()
		checks = checks[:0]
		t0 := time.Now()
		for k := 0; k < localBlock; k++ {
			op := f.cursor + k
			q := qs[op%len(qs)]
			src := q.src(n)
			c0 := time.Now()
			r := sr.Route(src, q.target)
			c1 := time.Now()
			ph.lat.add(c1.Sub(c0))
			tr.record("overlaynet.SnapshotRouter.Route", 0, block, int64(op), c0, c1)
			if r.Dest == -1 || !r.Arrived {
				ph.fails++
			}
			if op%checkEvery == 0 {
				checks = append(checks, routeCheck{src, q.target, r})
			}
		}
		t1 := time.Now()
		tr.record("block", block, 0, -1, t0, t1)
		f.cursor += localBlock
		ph.ops += localBlock
		closed = ph.win.round(localBlock, t1.Sub(t0))
		for _, c := range checks {
			ph.checks.check(snap, c)
		}
	}
	for closed := false; !closed; {
		t0 := time.Now()
		name, err := f.ch.step(ctx)
		if err != nil {
			return err
		}
		t1 := time.Now()
		sr.Rebind(f.pub.Snapshot())
		t2 := time.Now()
		tr.record(name, 0, 0, -1, t0, t1)
		ph.churn.add(t2.Sub(t0))
		closed = ph.churnWin.round(1, t2.Sub(t0))
	}
	return nil
}

func runLocalPhase(ctx context.Context, fs []*localFixture, qs []query, until time.Time, ref *hostRef, tr *tracer) ([]*lookupPhase, error) {
	phases := newLocalPhases(len(fs), ref)
	err := rotate(len(fs), until, func(i int) error { return runLocalWindow(ctx, fs[i], phases[i], qs, tr) })
	return phases, err
}

func runLookupLocal(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	fs, err := timedSetup(res, cfg, func(seed uint64) (*localFixture, error) {
		pub, err := buildServing(ctx, lookupN, seed)
		if err != nil {
			return nil, err
		}
		return &localFixture{pub: pub, ch: newChurner(pub, seed), snap0: pub.Snapshot()}, nil
	}, func(*localFixture) {})
	if err != nil {
		return nil, err
	}
	res.e2e["heap_mb"] = heapMB()
	qs := makeQueries(cfg.seed)

	sm := startSteal()
	if !cfg.traced {
		phases, err := runLocalPhase(ctx, fs, qs, time.Now().Add(cfg.seconds), cfg.ref, nil)
		if err != nil {
			return nil, err
		}
		res.steal = sm.pct()
		fillLookup(res, phases)
		res.infof("oracle: %d sampled answers not path-compared for an exact distance tie", checkedTies(phases))
		return res, nil
	}

	m0 := markMem()
	ref, err := runLocalPhase(ctx, fs, qs, time.Now().Add(cfg.phase(refShare)), cfg.ref, nil)
	if err != nil {
		return nil, err
	}
	refOps := phaseOps(ref)
	recordRuntime(res, m0, markMem(), refOps)
	var event, publish samples
	for _, f := range fs {
		f.ch.resetTimes()
	}
	ts := newTracers(1, sampleEvery(tracedOps(refOps, 1)))
	trc, err := runLocalPhase(ctx, fs, qs, time.Now().Add(cfg.phase(tracedShare)), cfg.ref, ts[0])
	if err != nil {
		return nil, err
	}
	for i, f := range fs {
		event.merge(&f.ch.event)
		publish.merge(&f.ch.publish)
		res.attempted += ref[i].ops + trc[i].ops
		res.failed += ref[i].fails + trc[i].fails
		checkPhase(res, i, ref[i])
		checkPhase(res, i, trc[i])
	}
	res.layer["publisher.event_p50_us"] = event.quantileUS(0.5)
	res.layer["publisher.publish_event_p50_us"] = publish.quantileUS(0.5)
	probeLookups(res, fs[0].snap0, qs[:replayQueries], newProbeClock(cfg.phase(probeShare)))
	res.steal = sm.pct()
	return res, finishTrace(res, cfg, "lookup-local", ts, phaseP50(ref), phaseP50(trc))
}
