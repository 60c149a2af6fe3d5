package sim

import (
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/overlaynet"
)

// This file is the engine's message plane: when a scenario configures
// Faults, every query becomes a flight — a sequence of evHop events,
// each one send attempt over the netmodel plane — instead of an
// instantaneous Route call. Each flight drives an
// overlaynet.RobustHop, the retry machine RobustRouter drives too
// (same RobustPolicy semantics, same typed outcomes); this file only
// supplies the clock, so link latencies, timeouts and backoff waits
// advance virtual time and interleave with churn: a node can depart
// while a query sits on it.
//
// Flights pin nodes by identifier, not slot: the overlay's leave path
// renames slots, so every step re-locates the holding identifier and
// every candidate carries its key. A flight whose holder departs
// mid-flight is lost — the initiator only learns by timing out.

// flight is one query in flight. Flights live in a free-listed slice
// on the Engine; candidate scratch is reused across queries.
type flight struct {
	target keyspace.Key
	start  float64 // virtual time the query was issued

	cur    int          // slot the query currently sits on (best known)
	curKey keyspace.Key // identifier of the holder, the durable name

	hops    int
	retries int

	hop    overlaynet.RobustHop // candidates, attempts, backoff, verdicts
	active bool

	// Storage payload: when op != opNone the flight carries one store
	// operation, executed on arrival by storeState.completeFlight.
	op     uint8
	opKey  keyspace.Key
	opSpan float64

	// tr is this query's sampled trace, nil for the unsampled majority.
	// Spans are recorded in virtual time; finishFlight returns it.
	tr *obs.Trace
}

// allocFlight returns a free flight slot, reusing finished ones.
func (e *Engine) allocFlight() int {
	if n := len(e.freeFl); n > 0 {
		fi := e.freeFl[n-1]
		e.freeFl = e.freeFl[:n-1]
		return fi
	}
	e.flights = append(e.flights, flight{})
	return len(e.flights) - 1
}

// startFlight launches one query as a message flight and runs its
// first step synchronously (building candidates and sending the first
// hop costs no virtual time).
func (e *Engine) startFlight(src int, target keyspace.Key) {
	e.startFlightOp(src, target, opNone, 0)
}

// startFlightOp is startFlight carrying a storage operation: the
// flight routes toward the op's locate key and the op executes when
// the flight arrives.
func (e *Engine) startFlightOp(src int, target keyspace.Key, op uint8, opSpan float64) {
	keys := e.ov.Keys()
	if e.model.Dead(keys[src]) {
		// A crashed node originates nothing. Redraw a live source a few
		// times so load keeps flowing; the extra draws only happen under
		// a fault plane with crashed nodes, where they are part of the
		// replay format.
		live := false
		for tries := 0; tries < 8; tries++ {
			src = e.loadRNG.Intn(len(keys))
			if !e.model.Dead(keys[src]) {
				live = true
				break
			}
		}
		if !live {
			return // population saturated with crashed nodes; no query
		}
	}
	fi := e.allocFlight()
	f := &e.flights[fi]
	hop := f.hop
	*f = flight{
		target: target,
		start:  e.now,
		cur:    src,
		curKey: keys[src],
		hop:    hop,
		active: true,
		op:     op,
		opKey:  target,
		opSpan: opSpan,
	}
	f.hop.Reset(&e.pol)
	f.tr = e.obsSampler.Start(flightOpName(op), src, float64(target), e.now)
	e.stepFlight(fi)
}

// stepFlight advances one flight by one send attempt. Exactly one
// evHop continuation is scheduled per step unless the flight finishes,
// so a flight never has two pending events.
func (e *Engine) stepFlight(fi int) {
	f := &e.flights[fi]
	if !f.active || e.err != nil {
		return
	}
	pol := e.pol
	n := e.ov.N()
	// Re-locate the holder: churn renames slots, identifiers persist.
	if f.cur >= n || e.ov.Key(f.cur) != f.curKey {
		if u := e.slotOf(f.curKey); u >= 0 {
			f.cur = u
		} else {
			// The node holding the query departed mid-flight.
			e.finishFlight(fi, overlaynet.TimedOut, 0)
			return
		}
	}
	maxHops := pol.MaxHops
	if maxHops <= 0 {
		maxHops = 4 * n
	}
	if f.hops >= maxHops || (pol.QueryTimeout > 0 && e.now-f.start >= pol.QueryTimeout) {
		e.finishFlight(fi, overlaynet.TimedOut, 0)
		return
	}
	h := &f.hop
	if !h.Selected() {
		// The query just arrived at f.cur: byzantine hijack first, then
		// honest candidate selection.
		if f.hops > 0 && e.model.Misroute(f.curKey) {
			e.hijackFlight(fi)
			return
		}
		dCur := e.topo.Distance(f.curKey, f.target)
		if h.Select(e.topo, e.ov.Neighbors(f.cur), e.ov.Keys(), nil, f.curKey, f.target, dCur) == 0 {
			e.finishFlight(fi, e.classifyStop(f, dCur), 0)
			return
		}
	}
	// One send attempt to the current candidate.
	c := h.Cand()
	del := netmodel.Delivery{Status: netmodel.SendUnreachable}
	switch {
	case int(c.Slot) < n && e.ov.Key(int(c.Slot)) == c.Key:
		del = e.model.Send(f.curKey, c.Key)
	default:
		if u := e.slotOf(c.Key); u >= 0 {
			c.Slot = int32(u)
			del = e.model.Send(f.curKey, c.Key)
		}
		// Candidate departed since selection: stays unreachable.
	}
	if del.Status == netmodel.SendOK {
		f.tr.Hop(e.now, del.Latency, c.Slot, h.Index(), h.Attempt(), obs.SpanHop, c.D)
		f.hops++
		f.cur, f.curKey = int(c.Slot), c.Key
		h.Moved()
		e.push(event{at: e.now + del.Latency, kind: evHop, proc: fi})
		return
	}
	wait := pol.HopTimeout
	f.tr.Hop(e.now, wait, c.Slot, h.Index(), h.Attempt(), obs.SpanTimeout, c.D)
	switch step, backoff := h.Fail(del.Status == netmodel.SendLost, e.faultRNG); step {
	case overlaynet.HopRetry:
		f.retries++
		e.push(event{at: e.now + (wait + backoff), kind: evHop, proc: fi})
	case overlaynet.HopFallback:
		e.push(event{at: e.now + wait, kind: evHop, proc: fi})
	default:
		e.finishFlight(fi, h.Exhausted(), wait)
	}
}

// hijackFlight executes a byzantine relay's detour: the query is
// forwarded to a uniformly random neighbour, or — when that send fails
// — vanishes, and the initiator pays its timeout.
func (e *Engine) hijackFlight(fi int) {
	f := &e.flights[fi]
	nbrs := e.ov.Neighbors(f.cur)
	if len(nbrs) > 0 {
		v := int(nbrs[e.faultRNG.Intn(len(nbrs))])
		vKey := e.ov.Key(v)
		if del := e.model.Send(f.curKey, vKey); del.Status == netmodel.SendOK {
			if f.tr != nil {
				f.tr.Hop(e.now, del.Latency, int32(v), 0, 0, obs.SpanHijack,
					e.topo.Distance(vKey, f.target))
			}
			f.hops++
			f.hop.Degraded = true
			f.cur, f.curKey = v, vKey
			f.hop.Moved()
			e.push(event{at: e.now + del.Latency, kind: evHop, proc: fi})
			return
		}
	}
	e.finishFlight(fi, overlaynet.TimedOut, e.pol.HopTimeout)
}

// classifyStop types a flight stopped at a live local minimum at
// distance dCur (see overlaynet.RobustHop.Stop), scanning the
// population for the target's nearest and nearest live nodes.
func (e *Engine) classifyStop(f *flight, dCur float64) overlaynet.Outcome {
	topo := e.topo
	bestAll := topo.MaxDistance() + 1
	bestLive := bestAll
	for _, k := range e.ov.Keys() {
		d := topo.Distance(k, f.target)
		if d < bestAll {
			bestAll = d
		}
		if d < bestLive && !e.model.Dead(k) {
			bestLive = d
		}
	}
	return f.hop.Stop(dCur, bestAll, bestLive)
}

// finishFlight records the flight's outcome — end-to-end wall latency
// is issue-to-now plus any terminal timeout still being waited out —
// and returns its slot to the free list.
func (e *Engine) finishFlight(fi int, o overlaynet.Outcome, extra float64) {
	f := &e.flights[fi]
	hops := f.hops
	if f.op != opNone && e.store != nil {
		o, hops = e.store.completeFlight(f, o)
	}
	lat := e.now - f.start + extra
	e.rec.queryRobust(e.now, o, hops, f.retries, lat)
	if e.obsReg != nil || f.tr != nil {
		e.observeFlight(f, o, hops, lat)
	}
	f.active = false
	e.freeFl = append(e.freeFl, fi)
}

// slotOf returns the slot currently holding identifier k, or -1.
func (e *Engine) slotOf(k keyspace.Key) int {
	for u, key := range e.ov.Keys() {
		if key == k {
			return u
		}
	}
	return -1
}
