package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"sprint/internal/core"
	"sprint/internal/httpapi"
	"sprint/internal/matrix"
	"sprint/internal/maxt"
	"sprint/internal/perm"
	"sprint/internal/seqstop"
	"sprint/internal/stat"
)

// Layer probes time calls into each engine module's public functions on
// the Table I matrix, from outside the program.  Each probe runs
// probeReps times and reports the median.
const (
	probeB     = 2048 // permutations per kernel probe: 32 batches of core.DefaultBatchSize
	probeReps  = 5
	probeBatch = core.DefaultBatchSize
)

// timeMedian runs f reps times and returns the median wall time.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// probe times one layer call under a "probe.<name>" span and stores the
// median, converted by scale, as metric name.
func (r *runner) probe(m map[string]float64, name string, reps int, scale func(time.Duration) float64, f func() error) error {
	t0 := time.Now()
	d, err := timeMedian(reps, f)
	r.tr.add("probe."+name, -1, "", t0, time.Now())
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	m[name] = scale(d)
	return nil
}

func perUnit(n float64) func(time.Duration) float64 {
	return func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
}

func inMS(d time.Duration) float64 { return d.Seconds() * 1e3 }
func inUS(d time.Duration) float64 { return d.Seconds() * 1e6 }

// probeEngine fills the perm, stat, maxt, core, seqstop, matrix and codec
// layer metrics for the Welch-t, two-sided analysis of ds.
func (r *runner) probeEngine(ds *dataset, m map[string]float64) error {
	d, err := stat.NewDesign(stat.Welch, ds.Labels)
	if err != nil {
		return err
	}
	prep, err := maxt.NewPrepMatrix(ds.M, d, maxt.Abs, false)
	if err != nil {
		return err
	}
	rows, n := float64(prep.Rows()), d.N
	bk, ok := prep.Kernel.(stat.BatchKernel)
	if !ok {
		return fmt.Errorf("the Welch-t kernel is not a batch kernel")
	}
	gen := perm.NewRandom(d, r.seed, probeB)
	labs := make([]int, probeB*n)
	bs := bk.NewBatchScratch(probeBatch)
	out := matrix.New(probeBatch, prep.Rows())
	counts := maxt.NewCounts(prep.Rows())
	sc := prep.NewScratch()
	maxt.ProcessBatched(prep, gen, 0, probeBatch, counts, sc, probeBatch) // sizes the scratch
	// Label generation, the kernel and the whole ProcessBatched pass are
	// timed in turn within each repetition, so that the counting time
	// derived from their difference compares calls made under the same
	// machine conditions.
	var tl, ts, tp []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for base := 0; base < probeB; base += probeBatch {
			gen.Labels(int64(base), probeBatch, labs[base*n:(base+probeBatch)*n])
		}
		t1 := time.Now()
		for base := 0; base < probeB; base += probeBatch {
			bk.StatsBatch(labs[base*n:(base+probeBatch)*n], out, bs)
		}
		t2 := time.Now()
		counts.Reset(prep.Rows())
		maxt.ProcessBatched(prep, gen, 0, probeB, counts, sc, probeBatch)
		t3 := time.Now()
		r.tr.add("probe.perm.labels", -1, "", t0, t1)
		r.tr.add("probe.stat.batch", -1, "", t1, t2)
		r.tr.add("probe.maxt.process", -1, "", t2, t3)
		tl = append(tl, float64(t1.Sub(t0).Nanoseconds()))
		ts = append(ts, float64(t2.Sub(t1).Nanoseconds()))
		tp = append(tp, float64(t3.Sub(t2).Nanoseconds()))
	}
	m["perm.labels_ns_per_perm"] = median(tl) / probeB
	m["stat.batch_ns_per_rowperm"] = median(ts) / (probeB * rows)
	m["maxt.process_ns_per_rowperm"] = median(tp) / (probeB * rows)
	m["maxt.count_ns_per_rowperm"] = m["maxt.process_ns_per_rowperm"] - m["stat.batch_ns_per_rowperm"] - m["perm.labels_ns_per_perm"]/rows
	// Computed, not measured: per row and labelling the two-sample kernel
	// gathers the cells of the smaller class and writes one statistic.
	small := min(d.Counts[0], d.Counts[1])
	m["stat.computed_bytes_per_rowperm"] = float64(8*small + 8)

	if err := r.probe(m, "maxt.finalize_ms", probeReps, inMS, func() error {
		maxt.Finalize(prep, counts)
		return nil
	}); err != nil {
		return err
	}
	// The rows a sequential run keeps computing once the upper half of the
	// step-down order has frozen.
	rest := prep.Order[prep.Valid/2 : prep.Valid]
	if err := r.probe(m, "maxt.subset_ms", probeReps, inMS, func() error {
		_, err := prep.Subset(rest)
		return err
	}); err != nil {
		return err
	}

	cfg, err := seqstop.New(0, 0, prep.Rows())
	if err != nil {
		return err
	}
	// Observe freezes rows, so every call gets a fresh tracker, built
	// outside the timed call.
	tks := make([]*seqstop.Tracker, 4*probeReps)
	for i := range tks {
		tks[i] = seqstop.NewTracker(cfg, prep.Order, prep.Valid)
	}
	next := 0
	if err := r.probe(m, "seqstop.observe_us", len(tks), inUS, func() error {
		tks[next].Observe(counts.Raw, counts.Adj, counts.B)
		next++
		return nil
	}); err != nil {
		return err
	}

	opt := core.DefaultOptions()
	opt.B = probeB
	opt.Seed = r.seed
	var prepared *core.Prepared
	if err := r.probe(m, "core.prepare_ms", 3, inMS, func() error {
		var err error
		prepared, err = core.Prepare(ds.M, ds.Labels, opt)
		return err
	}); err != nil {
		return err
	}
	// One rank and every rank are timed in turn, like the kernel probes.
	var one, all []float64
	for rep := 0; rep < 3; rep++ {
		for k, nprocs := range []int{1, r.nproc} {
			t0 := time.Now()
			if _, err := core.RunPrepared(prepared, opt, core.RunControl{NProcs: nprocs, Every: servedEvery}); err != nil {
				return fmt.Errorf("probe core.run: %w", err)
			}
			d := float64(time.Since(t0).Nanoseconds())
			r.tr.add("probe.core.run", -1, "", t0, time.Now())
			if k == 0 {
				one = append(one, d)
			} else {
				all = append(all, d)
			}
		}
	}
	m["core.run_ns_per_rowperm"] = median(one) / (probeB * rows)
	m["core.scaling_eff"] = median(one) / (float64(r.nproc) * median(all))

	if err := r.probe(m, "matrix.spb_decode_ms", probeReps, inMS, func() error {
		_, err := matrix.DecodeBytes(ds.SPB)
		return err
	}); err != nil {
		return err
	}
	body, err := jobSpec{DS: ds, Opt: opt, Inline: true}.body()
	if err != nil {
		return err
	}
	if err := r.probe(m, "httpapi.decode_submit_us", 3, inUS, func() error {
		_, err := httpapi.DecodeSubmit(bytes.NewReader(body))
		return err
	}); err != nil {
		return err
	}
	return r.probeDelta(ds, m)
}

// probeDelta times StatsDelta, the Wilcoxon revolving-door path, on the
// first twelve columns of each class of ds (C(24,12) labellings, so the
// complete enumeration the door order serves exists).
func (r *runner) probeDelta(ds *dataset, m map[string]float64) error {
	var cols, labs []int
	for _, cls := range []int{0, 1} {
		for j, l := range ds.Labels {
			if l == cls && len(cols) < 12*(cls+1) {
				cols = append(cols, j)
				labs = append(labs, cls)
			}
		}
	}
	sub := matrix.New(ds.M.Rows, len(cols))
	for i := 0; i < sub.Rows; i++ {
		for k, j := range cols {
			sub.Row(i)[k] = ds.M.At(i, j)
		}
	}
	d, err := stat.NewDesign(stat.Wilcoxon, labs)
	if err != nil {
		return err
	}
	prep, err := maxt.NewPrepMatrix(sub, d, maxt.Abs, false)
	if err != nil {
		return err
	}
	dk, ok := prep.Kernel.(stat.DeltaKernel)
	if !ok || !dk.DeltaOK() {
		return fmt.Errorf("the Wilcoxon kernel has no delta path")
	}
	door, err := perm.NewRevolvingDoor(d)
	if err != nil {
		return err
	}
	nb := probeB / probeBatch
	lab0 := make([][]int, nb)
	moves := make([][]stat.Exchange, nb)
	for b := range lab0 {
		lab0[b] = make([]int, d.N)
		moves[b] = make([]stat.Exchange, probeBatch-1)
		door.LabelsDelta(int64(b*probeBatch), probeBatch, lab0[b], moves[b])
	}
	out := matrix.New(probeBatch, prep.Rows())
	bs := dk.NewBatchScratch(probeBatch)
	return r.probe(m, "stat.delta_ns_per_rowperm", probeReps, perUnit(probeB*float64(prep.Rows())), func() error {
		for b := range lab0 {
			dk.StatsDelta(lab0[b], moves[b], out, bs)
		}
		return nil
	})
}

// seqLayers reports the sequential stopping outcome of one library run of
// the table1-seq job spec: the median per-row effective permutation count
// and the share of planned row·permutations it saved.  Both are counts
// and repeat exactly for a seed.
func seqLayers(res *core.Result, m map[string]float64) {
	b := make([]float64, len(res.BEff))
	for i, v := range res.BEff {
		b[i] = float64(v)
	}
	sort.Float64s(b)
	m["seqstop.b_eff_median"] = median(b)
	m["seqstop.perms_saved_frac"] = float64(res.SeqPermsSaved()) / (float64(len(res.BEff)) * float64(res.PlannedB))
}
