package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentiles are the percentiles the reporter considers, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest of tailPercentiles with at least
// minBeyond of n samples beyond it, and how many lie beyond it; ok is
// false when even the median has too few.
func highestPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		if b := samplesBeyond(n, p); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// samplesBeyond counts the samples ranked above the nearest-rank p-th
// percentile of n samples.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p/100)
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// durations is a sample of latencies.
type durations []time.Duration

func (d durations) sorted() durations {
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the nearest-rank q-quantile of a sorted sample.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), q)-1]
}

func (d durations) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

// tail reports a named tail percentile of a sample. It returns the wanted
// percentile when at least minBeyond samples lie beyond it; otherwise the
// highest percentile that has, and a note saying so.
func (d durations) tail(want float64) (value time.Duration, used float64, note string) {
	s := d.sorted()
	if samplesBeyond(len(s), want) >= minBeyond {
		return s.quantile(want / 100), want, fmt.Sprintf("p%g of %d samples, %d beyond", want, len(s), samplesBeyond(len(s), want))
	}
	p, beyond, ok := highestPercentile(len(s))
	if !ok {
		return s.quantile(want / 100), want, fmt.Sprintf("only %d samples: p%g is unreliable", len(s), want)
	}
	return s.quantile(p / 100), p, fmt.Sprintf("too few samples for p%g: reporting p%g of %d samples, %d beyond", want, p, len(s), beyond)
}

// windowedMedian splits a sample into windows of length win by due time,
// counted from start, and returns the median of the window medians and
// the number of windows. A backlog that lasts a few seconds then moves
// a few windows, not the result; a change that slows every request
// moves every window.
func windowedMedian(lat durations, due []time.Time, start time.Time, win time.Duration) (time.Duration, int) {
	byWin := map[int]durations{}
	for i, l := range lat {
		k := int(due[i].Sub(start) / win)
		byWin[k] = append(byWin[k], l)
	}
	var meds []float64
	for _, w := range byWin {
		meds = append(meds, float64(w.sorted().quantile(0.5)))
	}
	return time.Duration(medianFloat(meds)), len(meds)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs (the mean of the middle two for an
// even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// statusDoc is GET /v1/status decoded without a schema.
type statusDoc map[string]any

// field returns the number at a dotted path such as "wal.batches"; ok is
// false when any step is missing or not of the expected kind.
func (s statusDoc) field(path ...string) (float64, bool) {
	var cur any = map[string]any(s)
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[k]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

// delta returns after - before of a counter; ok is false when either
// reading lacks the field, so a dropped counter is reported as absent,
// never as zero.
func delta(before, after statusDoc, path ...string) (float64, bool) {
	b, ok1 := before.field(path...)
	a, ok2 := after.field(path...)
	return a - b, ok1 && ok2
}

// counterSet accumulates derived per-layer metrics and the names of
// those whose inputs were absent.
type counterSet struct {
	values map[string]float64
	absent []string
}

func newCounterSet() *counterSet { return &counterSet{values: map[string]float64{}} }

// ratio records num/den under name when both are present and den is
// nonzero; otherwise name is listed as absent.
func (c *counterSet) ratio(name string, num float64, numOK bool, den float64, denOK bool) {
	if !numOK || !denOK || den == 0 {
		c.absent = append(c.absent, name)
		return
	}
	c.values[name] = num / den
}

// set records a value computed without status counters.
func (c *counterSet) set(name string, v float64) { c.values[name] = v }
