package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sprint/internal/core"
)

// setupReps is how many times a run builds its fixture; setup_s is the
// median, and the first fixture is the one measured.
const setupReps = 5

// runner is one workload run: its settings, what its clients saw, and
// the reference results they are checked against.
type runner struct {
	seed   uint64
	window time.Duration
	nproc  int
	dir    string
	tr     *tracer // nil unless the run is traced

	// rssAt is the count of completed window jobs at which rssMB is read.
	rssAt int
	rssMB float64

	mu      sync.Mutex
	jobs    []*jobRec
	done    int // window jobs completed
	uploads []uploadRec
	refs    *references
}

// jobRec is one submitted job and its fate.
type jobRec struct {
	Spec   jobSpec
	Run    jobRun
	Err    error
	Start  time.Time
	Root   int  // the job's root span, -1 when untraced
	Traced bool // its calls were recorded as spans
	Aux    bool // set-up or probe job: checked, but not in any metric
	Repeat *jobRec
	Out    outcome
}

// uploadRec is one PUT /v1/datasets.
type uploadRec struct {
	Dur  time.Duration
	Code int
	Err  error
}

// submit runs one job on c and records it.  repeat, when non-nil, is an
// earlier identical submission whose answer this one must equal.
func (r *runner) submit(c *client, spec jobSpec, traced, aux bool, repeat *jobRec) *jobRec {
	rec := &jobRec{Spec: spec, Traced: traced, Aux: aux, Repeat: repeat, Root: -1, Start: time.Now()}
	body, err := spec.body()
	if err != nil {
		rec.Err = err
	} else {
		var tr *tracer
		if traced {
			tr = r.tr
		}
		rec.Run, rec.Root, rec.Err = c.runJob(body, tr)
	}
	r.mu.Lock()
	r.jobs = append(r.jobs, rec)
	if !aux && rec.Err == nil {
		if r.done++; r.done == r.rssAt {
			r.rssMB = peakRSSMB()
		}
	}
	r.mu.Unlock()
	return rec
}

// upload PUTs ds on c, records the call and stores the dataset id.
func (r *runner) upload(c *client, ds *dataset) (time.Duration, error) {
	t0 := time.Now()
	id, err := c.putSPB(ds.SPB)
	rec := uploadRec{Dur: time.Since(t0), Err: err}
	var re *refusedError
	if errors.As(err, &re) {
		rec.Code = re.Code
	}
	if err == nil {
		ds.ID = id
	}
	r.mu.Lock()
	r.uploads = append(r.uploads, rec)
	r.mu.Unlock()
	return rec.Dur, err
}

// traced reports whether the i-th operation of a client records spans:
// every other one in a traced run, so the untraced ones measure the
// tracing overhead under the same load.
func (r *runner) traced(i int) bool { return r.tr != nil && i%2 == 1 }

// loop runs clients closed-loop callers until the window has passed:
// each sends its next operation only when the previous one finished.  It
// returns the wall time until the last operation finished.
func (r *runner) loop(clients int, op func(c, i int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < r.window; i++ {
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// verify settles every operation's outcome: refused, failed, or checked
// bit for bit against an in-process library run of the same spec (and,
// for an exact resubmit, against the first answer).  It runs after the
// measurement window.
func (r *runner) verify() (tally, error) {
	var t tally
	var specs []jobSpec
	for _, j := range r.jobs {
		if j.Run.Code == 0 && j.Err == nil && j.Run.Status.State == "done" {
			specs = append(specs, j.Spec)
		}
	}
	if err := r.refs.prefetch(specs); err != nil {
		return t, err
	}
	for _, u := range r.uploads {
		switch {
		case u.Code != 0:
			t.add(outcomeRefused)
		case u.Err != nil:
			t.add(outcomeFailed)
		default:
			t.add(outcomeOK)
		}
	}
	for _, j := range r.jobs {
		switch {
		case j.Run.Code != 0:
			j.Out = outcomeRefused
		case j.Err != nil || j.Run.Status.State != "done":
			j.Out = outcomeFailed
		default:
			want, err := r.refs.get(j.Spec.DS, j.Spec.Opt)
			if err != nil {
				return t, err
			}
			j.Out = outcomeOK
			if !matches(j.Run.Result, want) || (j.Repeat != nil && j.Repeat.Out == outcomeOK && !sameDoc(j.Run.Result, j.Repeat.Run.Result)) {
				j.Out = outcomeWrong
			}
		}
		t.add(j.Out)
	}
	return t, nil
}

// measured returns the jobs that count in the metrics: completed (done,
// whatever the check said — a wrong answer is counted as a failure, not
// hidden from the latency figures) and not auxiliary.
func (r *runner) measured() []*jobRec {
	var out []*jobRec
	for _, j := range r.jobs {
		if !j.Aux && j.Run.Code == 0 && j.Err == nil && j.Run.Status.State == "done" {
			out = append(out, j)
		}
	}
	return out
}

// latencies returns the client latencies, in seconds, of the measured
// jobs whose tracing matches traced (any when all is set).
func latencies(js []*jobRec, all, traced bool) []float64 {
	var out []float64
	for _, j := range js {
		if all || j.Traced == traced {
			out = append(out, j.Run.Latency.Seconds())
		}
	}
	return out
}

// endToEnd computes the metrics every workload reports: the gated ones
// of endToEndMetrics and the printed ones of closedLoopMetrics.
func endToEnd(js []*jobRec, wall time.Duration, setups []float64, rssMB float64) map[string]float64 {
	var work float64
	for _, j := range js {
		work += rowPerms(j.Run.Result)
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"job_p50_s":      median(latencies(js, true, false)),
		"rowperms_per_s": work / wall.Seconds(),
		"jobs_per_s":     float64(len(js)) / wall.Seconds(),
		"peak_rss_mb":    rssMB,
	}
}

// clientLayers computes the jobs and httpapi layer metrics from what the
// clients saw and the server counters before and after the window.
func clientLayers(js []*jobRec, before, after serverCounters, m map[string]float64) {
	var polls, rbytes, submit, queue, service, gap []float64
	for _, j := range js {
		polls = append(polls, float64(j.Run.Polls))
		rbytes = append(rbytes, float64(j.Run.ResultBytes))
		submit = append(submit, inMS(j.Run.Submit))
		if sub, start, fin, ok := serverTimes(j.Run.Status); ok {
			queue = append(queue, inMS(start.Sub(sub)))
			service = append(service, inMS(fin.Sub(start)))
			gap = append(gap, inMS(j.Run.Latency-fin.Sub(sub)))
		}
	}
	m["httpapi.polls_per_job"] = mean(polls)
	m["httpapi.result_bytes"] = median(rbytes)
	m["httpapi.client_gap_ms_p50"] = median(gap)
	m["jobs.submit_ms_p50"] = median(submit)
	m["jobs.queue_wait_ms_p50"] = median(queue)
	m["jobs.service_ms_p50"] = median(service)
	hits, builds := after.PrepHits-before.PrepHits, after.PrepBuilds-before.PrepBuilds
	m["jobs.prep_hit_ratio"] = ratio(float64(hits), float64(hits+builds))
	m["jobs.cache_hit_ratio"] = ratio(float64(after.CacheHits-before.CacheHits), float64(after.Submitted-before.Submitted))
	m["jobs.checkpoint_writes_per_job"] = ratio(float64(after.CheckpointWrites-before.CheckpointWrites), float64(after.Completed-before.Completed))
}

// clusterLayers computes the cluster layer metrics of the jobs js from
// the shard calls the workers served and the coordinator's retry count,
// and records each call as a "cluster.shard" span under its job.
func (r *runner) clusterLayers(js []*jobRec, calls []shardCall, retries int64, m map[string]float64) error {
	if len(js) == 0 {
		return fmt.Errorf("no cluster job completed")
	}
	var dur, resp, overhead []float64
	inJob := 0
	for _, j := range js {
		end := j.Start.Add(j.Run.Latency)
		busy := map[int][][2]int64{}
		for _, c := range calls {
			if c.Start.Before(j.Start) || c.End.After(end) {
				continue
			}
			inJob++
			dur = append(dur, inMS(c.End.Sub(c.Start)))
			resp = append(resp, float64(c.Bytes))
			busy[c.Worker] = append(busy[c.Worker], [2]int64{c.Start.UnixNano(), c.End.UnixNano()})
			if j.Traced {
				r.tr.add("cluster.shard", j.Root, j.Run.Status.ID, c.Start, c.End)
			}
		}
		var maxBusy int64
		for _, ivs := range busy {
			maxBusy = max(maxBusy, unionWithin(ivs, math.MinInt64, math.MaxInt64))
		}
		overhead = append(overhead, 1-float64(maxBusy)/float64(j.Run.Latency.Nanoseconds()))
	}
	m["cluster.shard_ms_p50"] = median(dur)
	m["cluster.response_bytes_per_shard"] = median(resp)
	m["cluster.overhead_frac"] = median(overhead)
	m["cluster.shards_per_job"] = float64(inJob) / float64(len(js))
	m["cluster.retries_per_job"] = float64(retries) / float64(len(js))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// exactOptions is the Table I analysis (Welch t, two-sided) at B
// permutations with the given seed.
func exactOptions(b int64, seed uint64) core.Options {
	opt := core.DefaultOptions()
	opt.B = b
	opt.Seed = seed
	return opt
}

// seqOptions is the table1-seq job spec: the Table I analysis in
// sequential mode at planned seqB, default α and tolerance.
func seqOptions(seed uint64) core.Options {
	opt := exactOptions(seqB, seed)
	opt.Mode = core.ModeSequential
	return opt
}
