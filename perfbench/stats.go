package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN when xs is empty.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPermille are the percentiles tail selection tries, highest first,
// in thousandths (999 is p99.9), so ranks are exact integers.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tail is a latency percentile together with the evidence behind it.
type tail struct {
	Percentile float64 // e.g. 99 for p99
	Value      float64
	Beyond     int // samples strictly above the percentile's rank
	N          int // samples in total
}

// tailPercentile picks the highest of tailPercentiles that has at least
// ten samples beyond it, by the nearest-rank definition (the p-th
// percentile of n sorted samples is the ceil(p·n/100)-th).  ok is false
// when even the median has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, pm := range tailPermille {
		rank := max((pm*n+999)/1000, 1)
		if n-rank >= 10 {
			return tail{Percentile: float64(pm) / 10, Value: s[rank-1], Beyond: n - rank, N: n}, true
		}
	}
	return tail{N: n}, false
}

// outcome is the fate of one attempted operation (a job or an upload).
type outcome int

const (
	outcomeOK      outcome = iota
	outcomeRefused         // the server answered 4xx/5xx, including 429
	outcomeFailed          // the job reached state failed or cancelled
	outcomeWrong           // the answer differs from the reference
)

// tally counts attempted operations and their failures.  Every attempt
// ends in exactly one outcome, so each failure counts once.
type tally struct {
	Attempted, Refused, Failed, Wrong int
}

func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case outcomeRefused:
		t.Refused++
	case outcomeFailed:
		t.Failed++
	case outcomeWrong:
		t.Wrong++
	}
}

// failures is every attempt that did not end in a correct answer.
func (t tally) failures() int { return t.Refused + t.Failed + t.Wrong }

// frac is failures over attempts; 0 when nothing was attempted.
func (t tally) frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failures()) / float64(t.Attempted)
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of its interval that its direct children
// cover.  Overlapping children are counted once, and a grandchild is
// already inside its parent's interval, so it is never subtracted twice.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := unionWithin(kids[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// unionWithin is the total length of the union of ivs clipped to [lo, hi).
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	for i, iv := range c {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if len(c) > 0 {
		total += curB - curA
	}
	return total
}
