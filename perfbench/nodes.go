package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/httpapi"
	"sprint/internal/jobs"
	"sprint/internal/metrics"
)

// node is one in-process pmaxtd: an httpapi.Server behind a loopback
// listener, journaled as deployed (-journal-dir puts the checkpoint and
// dataset mirrors in subdirectories of the journal directory).
type node struct {
	srv *httpapi.Server
	ts  *httptest.Server
}

func (n *node) url() string { return n.ts.URL }

func (n *node) close() {
	n.ts.Close()
	n.srv.Close()
}

// startNode starts a server journaling into dir.  workers sizes its job
// pool (0 = the pmaxtd default), dist makes it a coordinator, and wrap,
// when non-nil, wraps its HTTP handler.
func startNode(dir string, workers int, reg *metrics.Registry, dist jobs.Distributor, wrap func(http.Handler) http.Handler) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = metrics.New()
	}
	srv, err := httpapi.New(httpapi.Config{Jobs: jobs.Config{
		Workers:       workers,
		JournalDir:    dir,
		CheckpointDir: filepath.Join(dir, "checkpoints"),
		DatasetDir:    filepath.Join(dir, "datasets"),
		Metrics:       reg,
		Distributor:   dist,
	}})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	return &node{srv: srv, ts: httptest.NewServer(h)}, nil
}

// clusterNodes is a coordinator with its workers, all in process.
type clusterNodes struct {
	coord   *cluster.Coordinator
	front   *node
	workers []*node
	meter   *shardMeter
}

func (c *clusterNodes) close() {
	c.front.close()
	c.closeWorkers()
}

// startCluster starts nworkers worker daemons (one shard rank each, as
// with -shard-nprocs 1) and a journaled coordinator in front of them.
// Every shard request a worker serves is timed by the returned meter.
func startCluster(dir string, nworkers int) (*clusterNodes, error) {
	cn := &clusterNodes{meter: &shardMeter{}}
	var addrs []string
	for i := 0; i < nworkers; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		idx := i
		w, err := startNode(wdir, 0, nil, nil, func(h http.Handler) http.Handler { return cn.meter.wrap(idx, h) })
		if err != nil {
			cn.closeWorkers()
			return nil, err
		}
		wk := cluster.NewWorker(cluster.WorkerConfig{
			Source:       w.srv.Manager(),
			Every:        1000,
			RetentionDir: filepath.Join(wdir, "retained"),
			Metrics:      w.srv.Metrics(),
		})
		w.srv.AttachCluster(wk)
		cn.workers = append(cn.workers, w)
		addrs = append(addrs, w.url())
	}
	reg := metrics.New()
	cn.coord = cluster.NewCoordinator(cluster.CoordinatorConfig{
		Workers:      addrs,
		WorkerNProcs: 1,
		Metrics:      reg,
	})
	front, err := startNode(filepath.Join(dir, "coordinator"), 0, reg, cn.coord, nil)
	if err != nil {
		cn.closeWorkers()
		return nil, err
	}
	front.srv.AttachCluster(cn.coord)
	cn.front = front
	return cn, nil
}

func (c *clusterNodes) closeWorkers() {
	for _, w := range c.workers {
		w.close()
	}
}

// shardCall is one shard request a worker served.
type shardCall struct {
	Worker     int
	Start, End time.Time
	Bytes      int
}

// shardMeter times the shard route of every worker from outside the
// worker: the benchmark wraps each worker's HTTP handler.
type shardMeter struct {
	mu    sync.Mutex
	calls []shardCall
}

func (m *shardMeter) wrap(worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != cluster.ShardPath {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		m.mu.Lock()
		m.calls = append(m.calls, shardCall{Worker: worker, Start: start, End: end, Bytes: cw.n})
		m.mu.Unlock()
	})
}

func (m *shardMeter) snapshot() []shardCall {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]shardCall(nil), m.calls...)
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}
