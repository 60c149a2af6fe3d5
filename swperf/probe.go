package main

import (
	"fmt"
	"time"

	"smallworld/overlaynet"
	"smallworld/wire"
)

// probeClock hands out deadlines as shares of a traced run's probe
// budget.
type probeClock struct{ total time.Duration }

func newProbeClock(total time.Duration) probeClock { return probeClock{total} }

func (p probeClock) until(share float64) time.Time {
	return time.Now().Add(time.Duration(float64(p.total) * share))
}

// minProbeSamples keeps a probe's p99 supported however short the
// budget.
const minProbeSamples = 1000

// sink keeps probe loops from being optimised away.
var sink int

// csrBytesPerNode is the snapshot's flat CSR adjacency size per node:
// int32 row offsets plus int32 targets.
func csrBytesPerNode(s *overlaynet.Snapshot) float64 {
	c := s.CSR()
	return float64(4*(c.N()+1)+4*c.M()) / float64(c.N())
}

// probeLookups measures the routing kernel on the fixed replay set over
// snap: the seed-exact mean hop count, per-call SnapshotRouter.Route
// latency, the cost of one GreedyStep, and the snapshot's CSR bytes
// per node. It returns the route p50 in microseconds.
func probeLookups(res *result, snap *overlaynet.Snapshot, qs []query, probe probeClock) float64 {
	n := snap.N()
	res.layer["graph.csr_bytes_per_node"] = csrBytesPerNode(snap)

	sr := &overlaynet.SnapshotRouter{}
	sr.Rebind(snap)
	hops := 0
	for _, q := range qs {
		hops += sr.Route(q.src(n), q.target).Hops
	}
	res.layer["overlaynet.hops_mean"] = float64(hops) / float64(len(qs))

	var lat samples
	for until := probe.until(0.3); lat.len() < minProbeSamples || time.Now().Before(until); {
		for _, q := range qs {
			src := q.src(n)
			t0 := time.Now()
			r := sr.Route(src, q.target)
			lat.add(time.Since(t0))
			sink += r.Hops
		}
	}
	route := lat.quantileUS(0.5)
	res.layer["overlaynet.route_p50_us"] = route

	var perStep []float64
	for until := probe.until(0.2); len(perStep) < 3 || time.Now().Before(until); {
		steps := 0
		t0 := time.Now()
		for _, q := range qs {
			steps += replay(snap, q.src(n), q.target).Hops
		}
		perStep = append(perStep, float64(time.Since(t0).Nanoseconds())/float64(max(steps, 1)))
	}
	res.layer["overlaynet.step_ns"] = median(perStep)
	return route
}

// probeCodec times an AppendFrame + ParseFrame round trip of a
// query-sized frame (u32 source + f64 target), per op, as the median
// over batches.
func probeCodec(until time.Time) float64 {
	const batch = 4096
	payload := wire.AppendF64(wire.AppendU32(nil, 12345), 0.5)
	fr := wire.Frame{Type: 1, From: 4, To: 2, Corr: 99, Payload: payload}
	var buf []byte
	var perOp []float64
	for len(perOp) < 5 || time.Now().Before(until) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fr.Corr++
			buf = wire.AppendFrame(buf[:0], fr)
			got, n, err := wire.ParseFrame(buf)
			if err != nil {
				panic(err) // a frame the codec just wrote must parse
			}
			sink += n + int(got.Corr)
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(perOp)
}

// probePing sends query-sized frames one at a time to a benchmark-owned
// endpoint on tr and times two intervals per frame: the Send call
// itself, and from Send's return to the handler's entry on the
// endpoint's drain goroutine (the handoff).
func probePing(tr *wire.ChanTransport, until time.Time) (send, handoff samples, err error) {
	got := make(chan time.Time, 1) // one frame in flight at a time
	if err := tr.Listen(probeAddr, func([]byte) { got <- time.Now() }); err != nil {
		return send, handoff, fmt.Errorf("probe endpoint: %w", err)
	}
	payload := wire.AppendF64(wire.AppendU32(nil, 12345), 0.5)
	frame := wire.AppendFrame(nil, wire.Frame{Type: 1, From: probeAddr, To: probeAddr, Payload: payload})
	for send.len() < minProbeSamples || time.Now().Before(until) {
		t0 := time.Now()
		if err := tr.Send(probeAddr, frame); err != nil {
			return send, handoff, fmt.Errorf("probe send: %w", err)
		}
		t1 := time.Now()
		t2 := <-got
		send.add(t1.Sub(t0))
		handoff.add(t2.Sub(t1))
	}
	return send, handoff, nil
}

// probeWireCounts routes the replay set through one client pinned to
// snap and returns the transport's frames and bytes per query and the
// shard crossings per query: seed-exact counts on a reliable wire.
func probeWireCounts(f *wireFixture, snap *overlaynet.Snapshot, qs []query) (frames, bytes, crossings float64, err error) {
	cl := f.clients[0]
	cl.Rebind(snap)
	n := snap.N()
	s0, b0 := f.tr.Stats()
	cross := 0
	for _, q := range qs {
		r := cl.Route(q.src(n), q.target)
		if r.Dest == -1 || !r.Arrived {
			return 0, 0, 0, fmt.Errorf("replay query to %v failed over the wire", q.target)
		}
		cross += cl.Crossings()
	}
	s1, b1 := f.tr.Stats()
	k := float64(len(qs))
	return float64(s1-s0) / k, float64(b1-b0) / k, float64(cross) / k, nil
}
