package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a tail read from fewer samples is a guess, not a measure.
const minBeyond = 10

// samples holds per-call durations in nanoseconds. uint32 caps one
// sample at 4.29 s, far above any single call the workloads make, and
// halves the memory of millions of samples. cut marks the end of a
// measurement window (see windower).
type samples struct {
	ns   []uint32
	cuts []int
}

func (s *samples) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(d))
}

func (s *samples) len() int { return len(s.ns) }

func (s *samples) reset() {
	s.ns = s.ns[:0]
	s.cuts = s.cuts[:0]
}

// merge appends o's samples; its window cuts are dropped, so merge
// only pooled records.
func (s *samples) merge(o *samples) { s.ns = append(s.ns, o.ns...) }

// cut closes the current window. Every cut makes a window, empty or
// not, so a recorder's windows line up with its windower's.
func (s *samples) cut() { s.cuts = append(s.cuts, len(s.ns)) }

// quantileUS returns the q-quantile of all samples in microseconds, or
// 0 without samples.
func (s *samples) quantileUS(q float64) float64 { return quantileOf(s.ns, q) }

func quantileOf(ns []uint32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	slices.Sort(xs)
	return quantile(xs, q) / 1e3
}

// windowQuantileUS reads the q-quantile in each of w's kept windows
// (see windower.kept) that has at least minBeyond samples above it,
// divides it by the window's host factor, and returns the median of
// those per-window values with their count. s must be one of w's
// recorders.
func (s *samples) windowQuantileUS(q float64, w *windower) (float64, int) {
	keep := w.kept()
	var per []float64
	lo := 0
	for i, hi := range s.cuts {
		if keep[i] && supported(hi-lo, q) {
			per = append(per, quantileOf(s.ns[lo:hi], q)/w.host[i])
		}
		lo = hi
	}
	if len(per) == 0 {
		return 0, 0
	}
	return median(per), len(per)
}

// quantile returns the q-quantile of ascending xs, interpolating
// linearly between the two order statistics around position q·(n-1).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// beyond counts the samples above the q-quantile of n samples: those
// ranked after the lower order statistic quantile interpolates from.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// supported reports whether n samples leave at least minBeyond above
// the q-quantile, the condition for reporting it.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// A run is cut into windows of about half a second and every timing
// is computed per window, then divided by the window's host factor
// (see hostref.go). Only windows whose steal share, by the host's own
// /proc/stat accounting, is at most the median window's are kept (all
// of them where /proc/stat is missing): stolen time stretches a
// window's wall time but not the reference work's. A fixture's value
// is the median over its kept windows.

// windower cuts a run into windows of exactly rounds rounds. It owns
// the per-window throughput and host factor, and closes the windows of
// its recorders. A
// workload whose rounds end in membership events uses a multiple of
// publishEvery, so every window holds the same number of epoch
// publications and no window's throughput depends on where the
// publications fell. A window that the run's end leaves short is never
// closed, so it is never read.
type windower struct {
	rounds, seen int
	ref          *hostRef
	stat         cpuStat
	statOK       bool
	ops          int64
	wall         time.Duration
	recs         []*samples
	// rates holds one throughput per window: ops over the summed wall
	// time of the window's rounds. steal holds each window's steal
	// share, -1 where /proc/stat could not be read. host holds the host
	// factor measured right after each window.
	rates, steal, host []float64
}

// newWindower returns a windower of rounds rounds per window whose
// windows are divided by the host factor ref measures, or, where ref
// is nil, by the stretch their stolen time gave them.
func newWindower(rounds int, ref *hostRef, recs ...*samples) *windower {
	w := &windower{rounds: rounds, ref: ref, recs: recs}
	w.open()
	return w
}

// open starts a window.
func (w *windower) open() {
	w.seen, w.ops, w.wall = 0, 0, 0
	w.stat, w.statOK = readCPUStat()
}

// round records one finished round and reports whether it closed the
// window, which it does after exactly w.rounds rounds.
func (w *windower) round(ops int64, wall time.Duration) bool {
	w.ops += ops
	w.wall += wall
	w.seen++
	if w.seen < w.rounds {
		return false
	}
	steal := -1.0
	if end, ok := readCPUStat(); ok && w.statOK {
		steal = stealPct(w.stat, end)
	}
	w.rates = append(w.rates, float64(w.ops)/max(w.wall.Seconds(), 1e-9))
	w.steal = append(w.steal, steal)
	w.host = append(w.host, w.hostFactor(steal))
	for _, r := range w.recs {
		r.cut()
	}
	w.open()
	return true
}

// hostFactor is how much slower the host ran the window just closed:
// the reference work's factor where the workload is host-scaled (the
// reference is stolen from too), else only the stretch that stolen
// time gave the window's wall time.
func (w *windower) hostFactor(steal float64) float64 {
	if w.ref != nil {
		return w.ref.factor()
	}
	if steal <= 0 {
		return 1
	}
	return 1 / (1 - min(steal, 90)/100)
}

// windows is the number of closed windows.
func (w *windower) windows() int { return len(w.rates) }

// kept marks the windows a run's timings are read from: those whose
// steal share is at most the median window's, so at least half.
func (w *windower) kept() []bool { return leastStolen(w.steal) }

func leastStolen(steal []float64) []bool {
	keep := make([]bool, len(steal))
	if len(steal) == 0 {
		return keep
	}
	limit := median(steal)
	for i, s := range steal {
		keep[i] = s <= limit
	}
	return keep
}

// rate is the fixture's throughput: the median over the kept windows
// of each window's throughput times its host factor.
func (w *windower) rate() float64 {
	vals := make([]float64, len(w.rates))
	for i, r := range w.rates {
		vals[i] = r * w.host[i]
	}
	return w.keptMedian(vals)
}

// time is the fixture's value of a per-window time xs: the median over
// the kept windows of each window's time divided by its host factor.
func (w *windower) time(xs []float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = x / w.host[i]
	}
	return w.keptMedian(vals)
}

// keptMedian is the median of the kept windows' vals, 0 when none is
// kept.
func (w *windower) keptMedian(vals []float64) float64 {
	var k []float64
	for i, keep := range w.kept() {
		if keep {
			k = append(k, vals[i])
		}
	}
	if len(k) == 0 {
		return 0
	}
	return median(k)
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	steal, total uint64
}

// parseCPUStat reads the aggregate cpu line: user nice system idle
// iowait irq softirq steal [guest guest_nice]. guest time is already
// counted in user, so only the first eight fields make the total.
func parseCPUStat(r io.Reader) (cpuStat, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuStat{}, fmt.Errorf("cpu line has %d fields, need 9", len(f))
		}
		var st cpuStat
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("cpu field %d: %w", i, err)
			}
			st.total += v
			if i == 8 {
				st.steal = v
			}
		}
		return st, nil
	}
	if err := sc.Err(); err != nil {
		return cpuStat{}, err
	}
	return cpuStat{}, fmt.Errorf("no aggregate cpu line")
}

// stealPct is the share of CPU time the host stole between a and b,
// in percent; 0 when no ticks elapsed.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// readCPUStat samples /proc/stat; ok is false where it is unavailable,
// and the steal share is then reported as -1.
func readCPUStat() (cpuStat, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	defer f.Close()
	st, err := parseCPUStat(f)
	return st, err == nil
}

// decomposition sets a wire route's p50 against the sum of its layers:
// the in-process route compute plus, per frame, one codec round trip,
// one transport Send and one handoff to the receiving handler.
type decomposition struct {
	routeUS, frames, codecNS, sendNS, handoffUS float64
	clientUS                                    float64
}

// layersUS is the summed layer cost of one query in microseconds.
func (d decomposition) layersUS() float64 {
	return d.routeUS + d.frames*(d.codecNS/1e3+d.sendNS/1e3+d.handoffUS)
}

// residualUS is what the layers do not explain: Client.Route p50 minus
// the layer sum. Positive means time spent outside the measured layers
// (shard handler dispatch, result decode, scheduling of two clients).
func (d decomposition) residualUS() float64 { return d.clientUS - d.layersUS() }

func (d decomposition) String() string {
	return fmt.Sprintf("route %.3f + frames %.3f x (codec %.4f + send %.4f + handoff %.3f) = %.3f us; Client.Route p50 %.3f us; residual %.3f us (%.1f%%)",
		d.routeUS, d.frames, d.codecNS/1e3, d.sendNS/1e3, d.handoffUS, d.layersUS(), d.clientUS, d.residualUS(), 100*d.residualUS()/d.clientUS)
}

// spread describes how throughput and the host moved within a run:
// the median raw throughput and host factor, and every window in time
// order as raw op/s, host factor and steal share, so a stretch the
// host slowed shows as a dip with a factor above 1.
func (w *windower) spread() string {
	if len(w.rates) == 0 {
		return "no windows"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d windows, raw op/s p50 %.4g, host factor p50 %.3f; in order, op/s/factor/steal%%:",
		len(w.rates), median(w.rates), median(w.host))
	for i, r := range w.rates {
		fmt.Fprintf(&b, " %.3g/%.2f/%.0f", r, w.host[i], w.steal[i])
	}
	return b.String()
}
