package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"sprint/internal/core"
	"sprint/internal/microarray"
)

// Table I workloads: the paper matrix, Welch t, two-sided, run at
// table1B permutations (exact) or planned seqB (sequential), one job at
// a time with every CPU as a rank.
const (
	table1B = 4000
	seqB    = 100000
	warmB   = 200 // the set-up job that builds the dataset's preparation
)

// Peak RSS is read when this many window jobs have completed: within
// the first half of a 30 s window on a 2-CPU machine.
const (
	table1RSSJobs = 20
	seqRSSJobs    = 4
	smallRSSJobs  = 300
)

// workload is one named traffic mix.  setup builds its servers and inputs
// (called setupReps times, close in between); measure runs the closed
// loop for the window; layers adds the traced run's client, service and
// cluster layer metrics; extra prints the workload's own figures.
type workload interface {
	setup(r *runner, dir string) error
	measure(r *runner) (time.Duration, error)
	layers(r *runner, m map[string]float64) error
	extra(r *runner) ([]string, error)
	paper() *dataset
	close()
}

var workloads = map[string]func() workload{
	"table1-exact":  func() workload { return &table1{} },
	"table1-seq":    func() workload { return &table1{seq: true} },
	"cluster-exact": func() workload { return &table1{cluster: true} },
	"small-jobs":    func() workload { return &smallJobs{} },
}

// table1 serves table1-exact, table1-seq and cluster-exact: one client
// submits dataset_id jobs on the uploaded paper matrix back to back, each
// with a fresh seed, so no result is served from the cache.
type table1 struct {
	seq, cluster bool

	ds            *dataset
	front         *node
	cn            *clusterNodes
	c             *client
	put           []float64 // upload time per set-up, ms
	before, after serverCounters
	retries       int64
}

func (t *table1) paper() *dataset { return t.ds }

func (t *table1) opt(r *runner, i int) core.Options {
	if t.seq {
		return seqOptions(jobSeed(r.seed, i))
	}
	return exactOptions(table1B, jobSeed(r.seed, i))
}

func (t *table1) setup(r *runner, dir string) error {
	ds, err := paperDataset(r.seed)
	if err != nil {
		return err
	}
	t.ds = ds
	if t.cluster {
		if t.cn, err = startCluster(dir, r.nproc); err != nil {
			return err
		}
		t.front = t.cn.front
	} else if t.front, err = startNode(dir, 0, nil, nil, nil); err != nil {
		return err
	}
	t.c = newClient(t.front.url(), 2, r.seed)
	d, err := r.upload(t.c, ds)
	if err != nil {
		return fmt.Errorf("uploading the paper matrix: %w", err)
	}
	t.put = append(t.put, inMS(d))
	return warmUp(r, t.c, jobSpec{DS: ds, Opt: exactOptions(warmB, jobSeed(r.seed, -1)), NProcs: r.nproc})
}

// warmUp runs one auxiliary job so the dataset's preparation is built
// (and, on a cluster, pushed to and prepared on the workers).
func warmUp(r *runner, c *client, spec jobSpec) error {
	j := r.submit(c, spec, false, true, nil)
	if j.Err != nil || j.Run.Status.State != "done" {
		return fmt.Errorf("warm-up job: state %q: %v", j.Run.Status.State, j.Err)
	}
	return nil
}

func (t *table1) measure(r *runner) (time.Duration, error) {
	var err error
	if t.before, err = t.c.counters(); err != nil {
		return 0, err
	}
	if t.cn != nil {
		t.retries = t.cn.coord.Info().Coordinator.ShardRetries
	}
	r.rssAt = table1RSSJobs
	if t.seq {
		r.rssAt = seqRSSJobs
	}
	wall := r.loop(1, func(_, i int) {
		r.submit(t.c, jobSpec{DS: t.ds, Opt: t.opt(r, i), NProcs: r.nproc}, r.traced(i), false, nil)
	})
	if t.cn != nil {
		t.retries = t.cn.coord.Info().Coordinator.ShardRetries - t.retries
	}
	t.after, err = t.c.counters()
	return wall, err
}

func (t *table1) layers(r *runner, m map[string]float64) error {
	js := r.measured()
	clientLayers(js, t.before, t.after, m)
	m["httpapi.put_dataset_ms"] = median(t.put)
	if t.cluster {
		return r.clusterLayers(js, t.cn.meter.snapshot(), t.retries, m)
	}
	return r.clusterProbe(t.ds, m)
}

// extra reports, on table1-seq, how far the sequential p-values of the
// first job lie from the exact ones of the same seed and planned B.
func (t *table1) extra(r *runner) ([]string, error) {
	if !t.seq {
		return nil, nil
	}
	var first *jobRec
	for _, j := range r.measured() {
		if j.Spec.Opt.Seed == jobSeed(r.seed, 0) {
			first = j
		}
	}
	if first == nil {
		return nil, fmt.Errorf("the first sequential job did not complete")
	}
	exact, err := r.refs.get(t.ds, exactOptions(seqB, jobSeed(r.seed, 0)))
	if err != nil {
		return nil, err
	}
	var dp float64
	for i, p := range first.Run.Result.RawP {
		dp = math.Max(dp, math.Abs(p-exact.RawP[i]))
	}
	return []string{fmt.Sprintf("seq_max_abs_dp %g (first job, seed %d, planned B %d, against the exact run)", dp, jobSeed(r.seed, 0), seqB)}, nil
}

func (t *table1) close() {
	if t.c != nil {
		t.c.closeIdle()
	}
	if t.cn != nil {
		t.cn.close()
	} else if t.front != nil {
		t.front.close()
	}
	t.cn, t.front, t.c = nil, nil, nil
}

// clusterProbe runs a few Table I jobs through an in-process coordinator
// and workers, so workloads without a cluster still report the cluster
// layer metrics.  The jobs are checked like every other job.
func (r *runner) clusterProbe(ds *dataset, m map[string]float64) error {
	cn, err := startCluster(filepath.Join(r.dir, "clusterprobe"), r.nproc)
	if err != nil {
		return err
	}
	defer cn.close()
	c := newClient(cn.front.url(), 2, r.seed)
	defer c.closeIdle()
	if _, err := r.upload(c, ds); err != nil {
		return err
	}
	retries := cn.coord.Info().Coordinator.ShardRetries
	var js []*jobRec
	for k := 0; k < 3; k++ {
		j := r.submit(c, jobSpec{DS: ds, Opt: exactOptions(table1B/2, jobSeed(r.seed, 1000+k)), NProcs: r.nproc}, true, true, nil)
		if j.Err == nil && j.Run.Status.State == "done" {
			js = append(js, j)
		}
	}
	return r.clusterLayers(js, cn.meter.snapshot(), cn.coord.Info().Coordinator.ShardRetries-retries, m)
}

// smallPool is the small-jobs matrix pool: hundreds of genes, 12–40
// samples, t, F and Wilcoxon tests at small B.  The last entry is run
// as a complete enumeration (C(16,8) = 12870 labellings), the
// revolving-door StatsDelta path.
var smallPool = []struct {
	genes, samples, classes int
	test                    string
	b                       int64
}{
	{300, 24, 2, "t", 1000},
	{500, 40, 2, "t", 1000},
	{400, 30, 3, "f", 1000},
	{300, 20, 2, "wilcoxon", 1000},
	{150, 16, 2, "wilcoxon", 0},
}

const (
	smallInlineGenes   = 200 // x_flat submissions: 200×12, Welch t
	smallInlineSamples = 12
	smallUploads       = 96 // distinct matrices for the PUT /v1/datasets share of the mix
)

// smallJobs is one closed-loop client against a server with nproc job
// workers, every job at one rank.  Per operation (out of 20): 14
// dataset_id submits with fresh seeds, 2 inline x_flat submits, 2 exact
// resubmits (result-cache hits), 1 Wilcoxon complete enumeration and 1
// spb upload of a new matrix.
//
// One client, not nproc: nproc closed-loop clients keep nproc CPUs busy,
// so each job's latency then measures the CPU left over, and CPU time
// the host takes from the machine shows up several times over.  With a
// core taken by a busy loop, two clients' median latency rose by about
// half, one client's by at most a tenth.
type smallJobs struct {
	pool    []*dataset
	inline  *dataset
	fresh   []*dataset
	paperDS *dataset

	n             *node
	c             *client
	nextUpload    int
	last          *jobRec // the last fresh dataset_id job
	firstUpload   int     // index into r.uploads where the window starts
	before, after serverCounters
}

func (s *smallJobs) paper() *dataset { return s.paperDS }

func (s *smallJobs) setup(r *runner, dir string) error {
	gen := func(k uint64, genes, samples, classes int) (*dataset, error) {
		return genDataset(microarray.GenOptions{Genes: genes, Samples: samples, Classes: classes,
			DiffFraction: 0.05, EffectSize: 1.5, Seed: splitmix64(r.seed ^ k<<32)})
	}
	s.pool, s.fresh = nil, nil
	for k, p := range smallPool {
		ds, err := gen(uint64(k+1), p.genes, p.samples, p.classes)
		if err != nil {
			return err
		}
		s.pool = append(s.pool, ds)
	}
	var err error
	if s.inline, err = gen(100, smallInlineGenes, smallInlineSamples, 2); err != nil {
		return err
	}
	for k := 0; k < smallUploads; k++ {
		ds, err := gen(uint64(1000+k), 100, 12, 2)
		if err != nil {
			return err
		}
		s.fresh = append(s.fresh, ds)
	}
	if s.n, err = startNode(dir, r.nproc, nil, nil, nil); err != nil {
		return err
	}
	s.c = newClient(s.n.url(), 2, splitmix64(r.seed))
	for k, ds := range s.pool {
		if _, err := r.upload(s.c, ds); err != nil {
			return fmt.Errorf("uploading pool matrix %d: %w", k, err)
		}
		if err := warmUp(r, s.c, jobSpec{DS: ds, Opt: s.opt(k, jobSeed(r.seed, -1-k)), NProcs: 1}); err != nil {
			return err
		}
	}
	s.last = nil
	s.nextUpload = 0
	return nil
}

func (s *smallJobs) opt(k int, seed uint64) core.Options {
	opt := core.DefaultOptions()
	opt.Test = smallPool[k].test
	opt.B = smallPool[k].b
	opt.Seed = seed
	return opt
}

func (s *smallJobs) measure(r *runner) (time.Duration, error) {
	var err error
	if s.before, err = s.c.counters(); err != nil {
		return 0, err
	}
	s.firstUpload = len(r.uploads)
	r.rssAt = smallRSSJobs
	wall := r.loop(1, func(_, i int) {
		traced := r.traced(i)
		seed := jobSeed(r.seed, i)
		k := splitmix64(r.seed^uint64(i)) % 20
		switch {
		case k < 2:
			spec := jobSpec{DS: s.inline, Opt: exactOptions(1000, seed), NProcs: 1, Inline: true}
			r.submit(s.c, spec, traced, false, nil)
		case k < 4 && s.last != nil:
			r.submit(s.c, s.last.Spec, traced, false, s.last)
		case k == 4:
			r.submit(s.c, jobSpec{DS: s.pool[4], Opt: s.opt(4, seed), NProcs: 1}, traced, false, nil)
		case k == 5:
			r.upload(s.c, s.fresh[s.nextUpload%len(s.fresh)]) // recorded and checked by r.verify
			s.nextUpload++
		default:
			p := int(k % 4)
			s.last = r.submit(s.c, jobSpec{DS: s.pool[p], Opt: s.opt(p, seed), NProcs: 1}, traced, false, nil)
		}
	})
	s.after, err = s.c.counters()
	return wall, err
}

func (s *smallJobs) layers(r *runner, m map[string]float64) error {
	clientLayers(r.measured(), s.before, s.after, m)
	var put []float64
	for _, u := range r.uploads[s.firstUpload:] {
		put = append(put, inMS(u.Dur))
	}
	m["httpapi.put_dataset_ms"] = median(put)
	ds, err := paperDataset(r.seed)
	if err != nil {
		return err
	}
	s.paperDS = ds
	return r.clusterProbe(ds, m)
}

// extra reports the latency tail: the highest percentile with at least
// ten samples beyond it (p99 once a run completes 1000 jobs).
func (s *smallJobs) extra(r *runner) ([]string, error) {
	tl, ok := tailPercentile(latencies(r.measured(), true, false))
	if !ok {
		return []string{fmt.Sprintf("job_p99_s unavailable: %d jobs, too few for any tail percentile", tl.N)}, nil
	}
	name := "job_p99_s"
	if tl.Percentile != 99 {
		name = fmt.Sprintf("job_p%g_s (p99 needs 1000 jobs)", tl.Percentile)
	}
	return []string{fmt.Sprintf("%s %.6f s (n=%d jobs, %d beyond)", name, tl.Value, tl.N, tl.Beyond)}, nil
}

func (s *smallJobs) close() {
	if s.c != nil {
		s.c.closeIdle()
	}
	if s.n != nil {
		s.n.close()
	}
	s.n, s.c = nil, nil
}
