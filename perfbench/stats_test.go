package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"sprint/internal/core"
	"sprint/internal/httpapi"
	"sprint/internal/microarray"
)

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: selection must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 1000, p: 99, value: 990, beyond: 10, ok: true},
		{n: 999, p: 95, value: 950, beyond: 49, ok: true},
		{n: 10000, p: 99.9, value: 9990, beyond: 10, ok: true},
		{n: 200, p: 95, value: 190, beyond: 10, ok: true},
		{n: 40, p: 75, value: 30, beyond: 10, ok: true},
		{n: 20, p: 50, value: 10, beyond: 10, ok: true},
		{n: 19, ok: false},
	} {
		got, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok {
			t.Fatalf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
		}
		if got.N != tc.n {
			t.Errorf("n=%d: count %d", tc.n, got.N)
		}
		if ok && (got.Percentile != tc.p || got.Value != tc.value || got.Beyond != tc.beyond) {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d beyond",
				tc.n, got.Percentile, got.Value, got.Beyond, tc.p, tc.value, tc.beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
}

func TestTallyCountsEachFailureOnce(t *testing.T) {
	var tl tally
	for _, o := range []outcome{outcomeOK, outcomeRefused, outcomeFailed, outcomeWrong, outcomeOK} {
		tl.add(o)
	}
	if tl.Attempted != 5 || tl.Refused != 1 || tl.Failed != 1 || tl.Wrong != 1 || tl.failures() != 3 {
		t.Fatalf("tally %+v, failures %d", tl, tl.failures())
	}
	if got := tl.frac(); got != 0.6 {
		t.Errorf("failed fraction %g, want 0.6", got)
	}
}

// TestVerifyAccounting runs the runner's outcome rules on a 429, a failed
// job, a wrong answer and a correct one.
func TestVerifyAccounting(t *testing.T) {
	ds, err := genDataset(smallOpts(30, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	opt := exactOptions(50, 3)
	r := &runner{refs: newReferences(1)}
	want, err := r.refs.get(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	good := jobRun{Status: statusDone(), Result: resultDoc(want)}
	bad := good
	bad.Result = resultDoc(want)
	bad.Result.RawP[0] += 1e-12
	r.jobs = []*jobRec{
		{Spec: jobSpec{DS: ds, Opt: opt}, Run: jobRun{Code: 429}, Err: &refusedError{Code: 429}},
		{Spec: jobSpec{DS: ds, Opt: opt}, Run: jobRun{Status: statusFailed()}},
		{Spec: jobSpec{DS: ds, Opt: opt}, Run: bad},
		{Spec: jobSpec{DS: ds, Opt: opt}, Run: good},
	}
	tl, err := r.verify()
	if err != nil {
		t.Fatal(err)
	}
	if tl.Attempted != 4 || tl.Refused != 1 || tl.Failed != 1 || tl.Wrong != 1 {
		t.Fatalf("tally %+v", tl)
	}
	// A cache hit must also equal the first answer of its spec.
	hit := good
	hit.Result = resultDoc(want)
	hit.Result.Key = "other"
	r.jobs = []*jobRec{r.jobs[3], {Spec: jobSpec{DS: ds, Opt: opt}, Run: hit, Repeat: r.jobs[3]}}
	if tl, _ = r.verify(); tl.Wrong != 1 {
		t.Fatalf("a cache hit differing from its first answer was not counted: %+v", tl)
	}
}

func TestSelfTimeSubtractsDirectChildrenOnce(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) (overlapping:
	// union 50) and c [90,120) (clipped to 10); a has a grandchild g
	// [15,25) that must not be subtracted from root again.
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "g", Start: 15, End: 25},
		{ID: 5, Parent: -1, Name: "a", Start: 200, End: 205},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 40, "a": 20 + 5, "b": 30, "c": 30, "g": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metrics and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: code %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEndMetrics, spec.EndToEnd)
	check("per_layer", layerMetrics, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func smallOpts(genes, samples int, seed uint64) microarray.GenOptions {
	return microarray.GenOptions{Genes: genes, Samples: samples, Classes: 2, DiffFraction: 0.1, EffectSize: 2, Seed: seed}
}

func statusDone() httpapi.StatusJSON   { return httpapi.StatusJSON{ID: "j", State: "done"} }
func statusFailed() httpapi.StatusJSON { return httpapi.StatusJSON{ID: "j", State: "failed"} }

// resultDoc is the document a server would serve for res.
func resultDoc(res *core.Result) httpapi.ResultJSON {
	return httpapi.ResultJSON{
		ID: "j", Key: "k", B: res.B, Complete: res.Complete, Order: append([]int(nil), res.Order...),
		Stat: append(httpapi.Floats(nil), res.Stat...), RawP: append(httpapi.Floats(nil), res.RawP...),
		AdjP: append(httpapi.Floats(nil), res.AdjP...),
	}
}
