package main

import (
	"context"
	"fmt"
	"time"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/store"
	"smallworld/xrand"
)

const (
	// storeN keeps the store's member buckets, which every handover
	// scans, inside a core's L2 for the reason lookupN gives.
	storeN        = 1 << 12
	storeReplicas = 3
	// storeCorpus is the preloaded key set every op draws from, a
	// quarter key per node; puts overwrite it rather than grow it, so
	// handover cost stays steady through the run.
	storeCorpus = 1024
	// The op mix and value size are sim.StoreScenario's defaults.
	storeValueBytes = 64
	storeScanSpan   = 0.02
	storeGetFrac    = 0.60
	storePutFrac    = 0.30
	// storeOpsPerEvent is the number of ops between membership events.
	storeOpsPerEvent = 100
	// storeWindowRounds makes a store-churn window about 0.5 s.
	storeWindowRounds = 2 * publishEvery

	corpusSalt = 0x165667b19e3779f9
	opSalt     = 0x27d4eb2f165667c5
)

type storeFixture struct {
	pub    *overlaynet.Publisher
	st     *store.Store
	ch     *churner
	rng    *xrand.Stream // the op mix
	corpus []keyspace.Key
	// acked is the newest acknowledged stamp per corpus slot: the
	// durability oracle.
	acked []store.Stamp
}

func newStoreFixture(ctx context.Context, seed uint64) (*storeFixture, error) {
	pub, err := buildServing(ctx, storeN, seed)
	if err != nil {
		return nil, err
	}
	st, err := store.New(pub, store.Config{Replicas: storeReplicas, EventDriven: true})
	if err != nil {
		return nil, err
	}
	pub.SetOwnershipWatcher(st.ApplyChange)
	r := xrand.New(seed ^ corpusSalt)
	f := &storeFixture{
		pub: pub, st: st, ch: newChurner(pub, seed), rng: xrand.New(seed ^ opSalt),
		corpus: dist.SampleN(keyDist, r, storeCorpus), acked: make([]store.Stamp, storeCorpus),
	}
	val := make([]byte, storeValueBytes)
	for i, k := range f.corpus {
		res := st.Put(r.Intn(pub.N()), k, val)
		if !res.Acked {
			return nil, fmt.Errorf("preload put %d not acknowledged", i)
		}
		f.acked[i] = res.Stamp
	}
	return f, nil
}

// storePhase is what one measured phase of store-churn saw on one
// fixture.
type storePhase struct {
	*lookupPhase
	get, put, scan, handover samples
	hops, stale              int64
	// moved sums the Stats deltas over the phase's windows.
	moved store.Stats
}

func newStorePhases(n int, ref *hostRef) []*storePhase {
	ps := make([]*storePhase, n)
	for i := range ps {
		ps[i] = &storePhase{lookupPhase: newLookupPhase(storeWindowRounds, ref)}
	}
	return ps
}

// runStoreWindow runs one window of storeWindowRounds rounds on f, each
// of storeOpsPerEvent ops (60% Get, 30% Put, 10% Scan over the corpus)
// followed by one membership event, whose ownership changes the store
// hands over synchronously.
func runStoreWindow(ctx context.Context, f *storeFixture, ph *storePhase, tr *tracer) error {
	before := f.st.Stats()
	val := make([]byte, storeValueBytes)
	var hand time.Duration
	var churnSpan int64
	if tr != nil {
		f.pub.SetOwnershipWatcher(func(c overlaynet.OwnershipChange) {
			t0 := time.Now()
			f.st.ApplyChange(c)
			t1 := time.Now()
			hand += t1.Sub(t0)
			tr.record("store.ApplyChange", 0, churnSpan, -1, t0, t1)
		})
		defer f.pub.SetOwnershipWatcher(f.st.ApplyChange)
	}
	rng := f.rng
	for closed := false; !closed; {
		round := tr.begin()
		t0 := time.Now()
		for k := 0; k < storeOpsPerEvent; k++ {
			x := rng.Float64()
			i := rng.Intn(len(f.corpus))
			src := rng.Intn(f.pub.N())
			key := f.corpus[i]
			op := ph.ops + int64(k)
			c0 := time.Now()
			var name string
			var lat *samples
			switch {
			case x < storeGetFrac:
				r := f.st.Get(src, key)
				name, lat = "store.Get", &ph.get
				ph.hops += int64(r.Hops)
				if !r.Found {
					ph.fails++
				} else if r.Stamp.Less(f.acked[i]) {
					ph.stale++
				}
			case x < storeGetFrac+storePutFrac:
				r := f.st.Put(src, key, val)
				name, lat = "store.Put", &ph.put
				ph.hops += int64(r.Hops)
				if !r.Acked {
					ph.fails++
				} else {
					f.acked[i] = r.Stamp
				}
			default:
				r := f.st.Scan(src, keyspace.Interval{Lo: key, Hi: keyspace.Wrap(float64(key) + storeScanSpan)})
				name, lat = "store.Scan", &ph.scan
				ph.hops += int64(r.Hops)
			}
			c1 := time.Now()
			d := c1.Sub(c0)
			lat.add(d)
			ph.lat.add(d)
			tr.record(name, 0, round, op, c0, c1)
		}
		ph.ops += storeOpsPerEvent

		hand = 0
		churnSpan = tr.begin()
		tc := time.Now()
		name, err := f.ch.step(ctx)
		if err != nil {
			return err
		}
		te := time.Now()
		tr.record(name, churnSpan, round, -1, tc, te)
		tr.record("round", round, 0, -1, t0, te)
		if tr != nil {
			ph.handover.add(hand)
		}
		ph.churn.add(te.Sub(tc))
		closed = ph.win.round(storeOpsPerEvent, te.Sub(t0))
	}
	after := f.st.Stats()
	ph.moved.Rereplicated += after.Rereplicated - before.Rereplicated
	ph.moved.BytesMoved += after.BytesMoved - before.BytesMoved
	ph.moved.Transfers += after.Transfers - before.Transfers
	ph.moved.ReadRepairs += after.ReadRepairs - before.ReadRepairs
	return nil
}

func runStorePhase(ctx context.Context, fs []*storeFixture, until time.Time, ref *hostRef, tr *tracer) ([]*storePhase, error) {
	phases := newStorePhases(len(fs), ref)
	err := rotate(len(fs), until, func(i int) error { return runStoreWindow(ctx, fs[i], phases[i], tr) })
	return phases, err
}

// audit is the end-of-run durability check: after a full anti-entropy
// Sweep, every corpus key must be readable at no older than its newest
// acknowledged stamp.
func (f *storeFixture) audit(res *result, fixture int) {
	t0 := time.Now()
	f.st.Sweep()
	lost := 0
	for i, k := range f.corpus {
		if st, ok := f.st.Newest(k); !ok || st.Less(f.acked[i]) {
			lost++
		}
	}
	if lost > 0 {
		res.problem("fixture %d: durability audit lost %d of %d acknowledged writes", fixture, lost, len(f.corpus))
	}
	res.infof("fixture %d audit: %d acknowledged keys after a final Sweep, %d lost (%.1f s)", fixture, len(f.corpus), lost, time.Since(t0).Seconds())
}

// checkStale fails the run on any read older than its key's last
// acknowledged write.
func checkStale(res *result, phases []*storePhase) {
	for i, ph := range phases {
		if ph.stale > 0 {
			res.problem("fixture %d: %d reads returned an older stamp than the last acknowledged write", i, ph.stale)
		}
	}
}

// pooled merges one recorder of every phase.
func pooled(phases []*storePhase, of func(*storePhase) *samples) *samples {
	var all samples
	for _, ph := range phases {
		all.merge(of(ph))
	}
	return &all
}

func runStoreChurn(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	fs, err := timedSetup(res, cfg, func(seed uint64) (*storeFixture, error) { return newStoreFixture(ctx, seed) }, func(*storeFixture) {})
	if err != nil {
		return nil, err
	}
	res.e2e["heap_mb"] = heapMB()
	lookups := func(ps []*storePhase) []*lookupPhase {
		ls := make([]*lookupPhase, len(ps))
		for i, p := range ps {
			ls[i] = p.lookupPhase
		}
		return ls
	}
	audit := func() {
		for i, f := range fs {
			f.audit(res, i)
		}
	}

	sm := startSteal()
	if !cfg.traced {
		phases, err := runStorePhase(ctx, fs, time.Now().Add(cfg.seconds), cfg.ref, nil)
		if err != nil {
			return nil, err
		}
		res.steal = sm.pct()
		fillLookup(res, lookups(phases))
		checkStale(res, phases)
		scan := pooled(phases, func(p *storePhase) *samples { return &p.scan })
		res.infof("store: get p50 %.3f us, put p50 %.3f us, scan_p50_us %.3f us (%d scans)",
			pooled(phases, func(p *storePhase) *samples { return &p.get }).quantileUS(0.5),
			pooled(phases, func(p *storePhase) *samples { return &p.put }).quantileUS(0.5),
			scan.quantileUS(0.5), scan.len())
		audit()
		return res, nil
	}

	m0 := markMem()
	ref, err := runStorePhase(ctx, fs, time.Now().Add(cfg.phase(refShare)), cfg.ref, nil)
	if err != nil {
		return nil, err
	}
	refOps := phaseOps(lookups(ref))
	recordRuntime(res, m0, markMem(), refOps)
	checkStale(res, ref)
	for _, f := range fs {
		f.ch.resetTimes()
	}
	ts := newTracers(1, sampleEvery(1.25*float64(refOps)*(tracedShare+probeShare)/refShare))
	trc, err := runStorePhase(ctx, fs, time.Now().Add(cfg.phase(tracedShare+probeShare)), cfg.ref, ts[0])
	if err != nil {
		return nil, err
	}
	checkStale(res, trc)
	var event, publish samples
	var moved store.Stats
	var hops, events int64
	for i, f := range fs {
		event.merge(&f.ch.event)
		publish.merge(&f.ch.publish)
		res.attempted += ref[i].ops + trc[i].ops
		res.failed += ref[i].fails + trc[i].fails
		t := trc[i]
		moved.Rereplicated += t.moved.Rereplicated
		moved.BytesMoved += t.moved.BytesMoved
		moved.Transfers += t.moved.Transfers
		moved.ReadRepairs += t.moved.ReadRepairs
		hops += t.hops
		events += int64(t.churn.len())
	}
	trcOps := float64(max(phaseOps(lookups(trc)), 1))
	ev := float64(max(events, 1))
	res.layer["publisher.event_p50_us"] = event.quantileUS(0.5)
	res.layer["publisher.publish_event_p50_us"] = publish.quantileUS(0.5)
	res.layer["store.get_p50_us"] = pooled(trc, func(p *storePhase) *samples { return &p.get }).quantileUS(0.5)
	res.layer["store.put_p50_us"] = pooled(trc, func(p *storePhase) *samples { return &p.put }).quantileUS(0.5)
	res.layer["store.scan_p50_us"] = pooled(trc, func(p *storePhase) *samples { return &p.scan }).quantileUS(0.5)
	res.layer["store.handover_p50_us"] = pooled(trc, func(p *storePhase) *samples { return &p.handover }).quantileUS(0.5)
	res.layer["store.rereplicated_per_churn"] = float64(moved.Rereplicated) / ev
	res.layer["store.bytes_moved_per_churn"] = float64(moved.BytesMoved) / ev
	res.layer["store.transfers_per_churn"] = float64(moved.Transfers) / ev
	res.layer["store.read_repairs_per_kop"] = 1000 * float64(moved.ReadRepairs) / trcOps
	res.layer["store.hops_mean"] = float64(hops) / trcOps
	res.layer["graph.csr_bytes_per_node"] = csrBytesPerNode(fs[0].pub.Snapshot())
	audit()
	res.steal = sm.pct()
	return res, finishTrace(res, cfg, "store-churn", ts, phaseP50(lookups(ref)), phaseP50(lookups(trc)))
}
