package overlaynet

import (
	"smallworld/keyspace"
	"smallworld/xrand"
)

// RobustHop is the per-hop discipline of robust routing as a state
// machine: which improving neighbours a query may be forwarded to and
// in what order, how often each is resent and after what backoff, when
// to fall back to the next-best one, and how a finished query is
// typed. It owns no clock and sends nothing. Its drivers do that, one
// send attempt at a time: RobustRouter's synchronous walk sums
// latencies, and package sim's message flights schedule each attempt
// as a virtual-time event. Both drive this one machine, so the two
// executors cannot drift apart.
//
// A driver calls Reset once per query, Select on arrival at each node,
// then Cand/Fail per attempt until a send succeeds (Moved) or Fail
// reports HopExhausted (Exhausted types the failure). A node with no
// improving candidate is a stop, typed by Stop. The candidate slice is
// reused across hops and queries: zero allocations once warm.
type RobustHop struct {
	pol     *RobustPolicy
	cands   []HopCandidate
	idx     int     // candidate being tried; -1 until Select at this node
	attempt int     // resends burned on cands[idx]
	backoff float64 // next backoff wait for cands[idx]
	sawLost bool    // an attempt at this node was lost, not unreachable

	// Degraded records that the query needed a retry, a next-best
	// fallback or a byzantine detour; drivers set it for detours.
	Degraded bool
}

// HopCandidate is one improving out-neighbour of the node a query sits
// on. Key is the durable name: drivers whose slots can be renamed
// mid-flight re-locate Slot from it.
type HopCandidate struct {
	Slot int32        // slot holding Key when selected
	J    int32        // position in the holder's out-row
	Key  keyspace.Key // the candidate's identifier
	D    float64      // distance from Key to the target
}

// HopStep is what a failed send leads to.
type HopStep uint8

const (
	// HopRetry: resend to the same candidate after the returned backoff.
	HopRetry HopStep = iota
	// HopFallback: try the next-best candidate.
	HopFallback
	// HopExhausted: every candidate is used up; Exhausted types the end.
	HopExhausted
)

// Reset starts a new query under pol, which must stay resolved (see
// RobustPolicy.Resolved) and unchanged while the query runs.
func (h *RobustHop) Reset(pol *RobustPolicy) {
	h.pol = pol
	h.cands = h.cands[:0]
	h.idx = -1
	h.Degraded = false
}

// Selected reports whether candidates are built for the current node.
func (h *RobustHop) Selected() bool { return h.idx >= 0 }

// Select builds the candidates at the node holding curKey, at distance
// dCur from target: the out-neighbours in row that are strictly closer
// to target, or exactly as close and Advance toward it, skipping those
// dead marks (dead may be nil). They are tried nearest first; equal
// distances keep row order. Select returns the count; zero means the
// query stops here.
func (h *RobustHop) Select(topo keyspace.Topology, row []int32, keys []keyspace.Key, dead []bool, curKey, target keyspace.Key, dCur float64) int {
	h.cands = h.cands[:0]
	for j, v := range row {
		if dead != nil && dead[v] {
			continue
		}
		vKey := keys[v]
		d := topo.Distance(vKey, target)
		if d < dCur || (d == dCur && topo.Advances(curKey, vKey, target)) {
			h.cands = append(h.cands, HopCandidate{Slot: v, J: int32(j), Key: vKey, D: d})
		}
	}
	// Insertion sort by distance; candidate lists are short.
	for i := 1; i < len(h.cands); i++ {
		for j := i; j > 0 && h.cands[j].D < h.cands[j-1].D; j-- {
			h.cands[j], h.cands[j-1] = h.cands[j-1], h.cands[j]
		}
	}
	h.idx, h.attempt, h.backoff, h.sawLost = 0, 0, h.pol.Backoff, false
	if len(h.cands) == 0 {
		h.idx = -1
	}
	return len(h.cands)
}

// Cand returns the candidate the next attempt goes to.
func (h *RobustHop) Cand() *HopCandidate { return &h.cands[h.idx] }

// Index is the current candidate's rank in the tried order (0 = best).
func (h *RobustHop) Index() int { return h.idx }

// Attempt counts the resends already spent on the current candidate.
func (h *RobustHop) Attempt() int { return h.attempt }

// Moved records that the query left this node (a delivered send or a
// detour); the next node needs a fresh Select.
func (h *RobustHop) Moved() {
	h.cands = h.cands[:0]
	h.idx = -1
}

// Fail records a failed send to the current candidate. The sender
// cannot tell a lost message from a dead peer — both are a timeout —
// so it resends either way while the candidate's budget lasts; lost
// only tells the final verdict which it was. On HopRetry the returned
// wait is the jittered backoff before the resend, drawn from rng; the
// base doubles per resend and restarts for each candidate.
func (h *RobustHop) Fail(lost bool, rng *xrand.Stream) (HopStep, float64) {
	if lost {
		h.sawLost = true
	}
	pol := h.pol
	if h.attempt < pol.Retries {
		h.attempt++
		h.Degraded = true
		w := h.backoff
		h.backoff *= 2
		if pol.Jitter > 0 {
			w *= 1 + pol.Jitter*(2*rng.Float64()-1)
		}
		return HopRetry, w
	}
	h.idx++
	h.attempt, h.backoff = 0, pol.Backoff
	if h.idx < len(h.cands) {
		h.Degraded = true
		return HopFallback, 0
	}
	h.idx = -1
	return HopExhausted, 0
}

// Exhausted types a query whose every candidate failed: TimedOut when
// some failure was a lost message (retrying later might succeed),
// Unroutable when every candidate was unreachable.
func (h *RobustHop) Exhausted() Outcome {
	if h.sawLost {
		return TimedOut
	}
	return Unroutable
}

// Stop types a query that stopped at a live node at distance dCur with
// no improving candidate. dNearest is the target's distance to its
// nearest node of the population, dLive to its nearest live one; a
// negative value means the driver knows none. Stopping at a nearest
// node is Delivered (DeliveredDegraded after retries, fallbacks or
// detours); stopping at the nearest live node, the responsible one
// being dead, is DeliveredDegraded; anything else is Unroutable. dLive
// is read only when dCur > dNearest, so drivers may skip finding it.
func (h *RobustHop) Stop(dCur, dNearest, dLive float64) Outcome {
	switch {
	case dCur <= dNearest && !h.Degraded:
		return Delivered
	case dCur <= dNearest || dCur <= dLive:
		return DeliveredDegraded
	default:
		return Unroutable
	}
}
