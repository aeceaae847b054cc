package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sprint/internal/httpapi"
)

// The HTTP API has no long-poll, so the status-poll schedule sets a floor
// under client latency.  It is fixed here so that a later push or
// long-poll change shows up as fewer polls per job and a lower latency:
// the first poll comes pollFirst·pollGrowth^u after the submit answers,
// each wait is pollGrowth times the previous one, capped at pollMax.  The
// phase u is uniform in [0, 1) per job, drawn from the run's seed: with
// one fixed phase, jobs that end just after a poll wait a whole step
// longer than jobs that end just before it, so a median over jobs of
// nearly equal length jumps between steps.
const (
	pollFirst  = time.Millisecond
	pollGrowth = 1.5
	pollMax    = 20 * time.Millisecond
)

// client is one closed-loop caller of a server's HTTP API.  It is used by
// one goroutine at a time.
type client struct {
	base  string
	hc    *http.Client
	phase *rand.Rand // poll-schedule phases
}

func newClient(base string, conns int, seed uint64) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxIdleConns: conns}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		phase: rand.New(rand.NewPCG(seed, 0x706f6c6c))}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// jobRun is what the client saw of one job.
type jobRun struct {
	Code        int // HTTP status that refused the job; 0 when admitted
	Status      httpapi.StatusJSON
	Result      httpapi.ResultJSON
	Latency     time.Duration // POST /v1/jobs until the result is decoded
	Submit      time.Duration // the POST round trip alone
	Polls       int           // status GETs after the submit answered
	ResultBytes int
}

// refusedError is an HTTP answer outside 2xx.
type refusedError struct {
	Code int
	Body string
}

func (e *refusedError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Code, e.Body) }

// do sends one request and returns the body of a 2xx answer.
func (c *client) do(method, path, ctype string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, resp.StatusCode, &refusedError{Code: resp.StatusCode, Body: strings.TrimSpace(string(b))}
	}
	return b, resp.StatusCode, nil
}

func (c *client) getJSON(path string, v any) error {
	b, _, err := c.do("GET", path, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// putSPB uploads an spb-encoded matrix and returns its dataset id.
func (c *client) putSPB(body []byte) (string, error) {
	b, _, err := c.do("PUT", "/v1/datasets", httpapi.SPBContentType, body)
	if err != nil {
		return "", err
	}
	var up httpapi.DatasetUploadJSON
	if err := json.Unmarshal(b, &up); err != nil {
		return "", err
	}
	if up.MirrorError != "" {
		return "", fmt.Errorf("dataset mirror: %s", up.MirrorError)
	}
	return up.ID, nil
}

// runJob submits body, polls on the fixed schedule until the job ends and
// fetches its result.  A refused submit returns a *refusedError and the
// run with Code set; a job that ends in any state but done returns the
// run with its final status and no error.  When tr is non-nil the call
// records a "client.job" span with the HTTP calls and the server's
// queue and service intervals (from the status timestamps) under it;
// the returned root is that span's ID.
func (c *client) runJob(body []byte, tr *tracer) (run jobRun, root int, err error) {
	t0 := time.Now()
	root = tr.open("client.job", -1, "", t0)
	b, code, err := c.do("POST", "/v1/jobs", "application/json", body)
	t1 := time.Now()
	tr.add("httpapi.submit", root, "", t0, t1)
	run.Submit = t1.Sub(t0)
	if err != nil {
		run.Code = code
		tr.close(root, "", t1)
		return run, root, err
	}
	if err := json.Unmarshal(b, &run.Status); err != nil {
		return run, root, fmt.Errorf("decoding submit answer: %w", err)
	}
	wait := time.Duration(float64(pollFirst) * math.Pow(pollGrowth, c.phase.Float64()))
	for !terminal(run.Status.State) {
		time.Sleep(wait)
		wait = min(time.Duration(float64(wait)*pollGrowth), pollMax)
		p0 := time.Now()
		err := c.getJSON("/v1/jobs/"+run.Status.ID, &run.Status)
		tr.add("httpapi.poll", root, run.Status.ID, p0, time.Now())
		run.Polls++
		if err != nil {
			return run, root, fmt.Errorf("polling job %s: %w", run.Status.ID, err)
		}
	}
	if run.Status.State == "done" {
		r0 := time.Now()
		rb, _, err := c.do("GET", "/v1/jobs/"+run.Status.ID+"/result", "", nil)
		if err != nil {
			return run, root, fmt.Errorf("fetching result of %s: %w", run.Status.ID, err)
		}
		run.ResultBytes = len(rb)
		if err := json.Unmarshal(rb, &run.Result); err != nil {
			return run, root, fmt.Errorf("decoding result of %s: %w", run.Status.ID, err)
		}
		tr.add("httpapi.result", root, run.Status.ID, r0, time.Now())
	}
	end := time.Now()
	run.Latency = end.Sub(t0)
	if sub, start, fin, ok := serverTimes(run.Status); ok && tr != nil {
		tr.add("jobs.queue", root, run.Status.ID, sub, start)
		tr.add("jobs.service", root, run.Status.ID, start, fin)
	}
	tr.close(root, run.Status.ID, end)
	return run, root, nil
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// serverTimes parses the lifecycle stamps of a computed job; ok is false
// for cache hits, which never start.
func serverTimes(st httpapi.StatusJSON) (sub, start, fin time.Time, ok bool) {
	var err1, err2, err3 error
	sub, err1 = time.Parse(time.RFC3339Nano, st.SubmittedAt)
	start, err2 = time.Parse(time.RFC3339Nano, st.StartedAt)
	fin, err3 = time.Parse(time.RFC3339Nano, st.FinishedAt)
	return sub, start, fin, err1 == nil && err2 == nil && err3 == nil
}

// serverCounters is the slice of /v1/stats and /metrics the benchmark
// reads: job, cache and preparation counts, and checkpoint writes.
type serverCounters struct {
	Submitted        int64 `json:"submitted"`
	Completed        int64 `json:"completed"`
	CacheHits        int64 `json:"cache_hits"`
	PrepBuilds       int64 `json:"prep_builds"`
	PrepHits         int64 `json:"prep_hits"`
	CheckpointWrites int64 `json:"-"`
}

func (c *client) counters() (serverCounters, error) {
	var sc serverCounters
	if err := c.getJSON("/v1/stats", &sc); err != nil {
		return sc, fmt.Errorf("reading /v1/stats: %w", err)
	}
	b, _, err := c.do("GET", "/metrics", "", nil)
	if err != nil {
		return sc, fmt.Errorf("reading /metrics: %w", err)
	}
	sc.CheckpointWrites, err = promValue(b, "checkpoint_write_seconds_count")
	return sc, err
}

// promValue returns the value of an unlabelled series in a Prometheus
// text exposition.
func promValue(expo []byte, name string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(expo))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			return int64(v), err
		}
	}
	return 0, fmt.Errorf("series %s not in /metrics", name)
}
