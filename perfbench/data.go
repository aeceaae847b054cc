package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"sprint"
	"sprint/internal/core"
	"sprint/internal/httpapi"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// dataset is one generated input matrix with its class labels.
type dataset struct {
	X      [][]float64
	M      matrix.Matrix
	Labels []int
	SPB    []byte // row-major spb encoding, the upload body
	ID     string // dataset id once uploaded
}

func genDataset(opt microarray.GenOptions) (*dataset, error) {
	d, err := microarray.Generate(opt)
	if err != nil {
		return nil, err
	}
	m, err := d.Matrix()
	if err != nil {
		return nil, err
	}
	spb, err := matrix.EncodeBytes(m, d.Labels, nil, matrix.RowMajor)
	if err != nil {
		return nil, err
	}
	return &dataset{X: d.X, M: m, Labels: d.Labels, SPB: spb}, nil
}

// paperDataset is the Table I matrix shape (6102×76, two classes of 38),
// its cells drawn from seed.
func paperDataset(seed uint64) (*dataset, error) {
	opt := microarray.PaperDataset()
	opt.Seed = seed
	return genDataset(opt)
}

// splitmix64 derives independent seeds from one workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobSeed is the permutation seed of the i-th job of a run.  Every
// workload on the Table I matrix uses the same sequence, so
// table1-exact and cluster-exact compute the same jobs seed for seed.
func jobSeed(seed uint64, i int) uint64 {
	return splitmix64(seed*0x100000001b3+uint64(i)) >> 1
}

// jobSpec is one submission: a dataset, the analysis options and how the
// matrix travels (by dataset id, or inline as x_flat).
type jobSpec struct {
	DS     *dataset
	Opt    core.Options
	NProcs int
	Inline bool
}

func (s jobSpec) body() ([]byte, error) {
	req := httpapi.SubmitRequest{
		Options: httpapi.OptionsJSON{
			Test: s.Opt.Test, Side: s.Opt.Side, FixedSeedSampling: s.Opt.FixedSeedSampling,
			B: s.Opt.B, NA: s.Opt.NA, Nonpara: s.Opt.Nonpara, Seed: s.Opt.Seed, Mode: s.Opt.Mode,
			TargetAlpha: s.Opt.SeqAlpha, PTolerance: s.Opt.SeqTolerance,
		},
		NProcs: s.NProcs,
	}
	req.Dataset.Labels = s.DS.Labels
	if s.Inline {
		req.Dataset.XFlat = matrix.Transpose(s.DS.M.Data, s.DS.M.Rows, s.DS.M.Cols)
		req.Dataset.Genes, req.Dataset.Samples = s.DS.M.Rows, s.DS.M.Cols
	} else {
		req.Dataset.DatasetID = s.DS.ID
	}
	return json.Marshal(req)
}

// refKey identifies a reference computation: one dataset under one set of
// options (how the matrix travelled and the rank count do not matter).
type refKey struct {
	DS  *dataset
	Opt core.Options
}

// servedEvery is the server's default checkpoint window (pmaxtd -every),
// which every job here runs under.  Sequential stopping is decided at
// window boundaries, so the reference runs with the same window.
const servedEvery = 1000

// references computes in-process library results, once per key.
type references struct {
	nproc int
	memo  map[refKey]*core.Result
}

func newReferences(nproc int) *references {
	return &references{nproc: nproc, memo: make(map[refKey]*core.Result)}
}

func (r *references) get(ds *dataset, opt core.Options) (*core.Result, error) {
	k := refKey{ds, opt}
	if res, ok := r.memo[k]; ok {
		return res, nil
	}
	res, err := compute(k, r.nproc)
	if err != nil {
		return nil, err
	}
	r.memo[k] = res
	return res, nil
}

// prefetch computes the references of specs that are not yet known,
// nproc at a time at one rank each: results do not depend on the rank
// count, and one-rank runs side by side keep every CPU busy without a
// rank loop's per-window synchronisation.
func (r *references) prefetch(specs []jobSpec) error {
	var keys []refKey
	seen := map[refKey]bool{}
	for _, s := range specs {
		k := refKey{s.DS, s.Opt}
		if _, ok := r.memo[k]; !ok && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	res := make([]*core.Result, len(keys))
	errs := make([]error, len(keys))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(r.nproc, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res[i], errs[i] = compute(keys[i], 1)
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, k := range keys {
		if errs[i] != nil {
			return errs[i]
		}
		r.memo[k] = res[i]
	}
	return nil
}

func compute(k refKey, nprocs int) (*core.Result, error) {
	res, err := sprint.Run(k.DS.X, k.DS.Labels, k.Opt, sprint.RunControl{NProcs: nprocs, Every: servedEvery})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return res, nil
}

// sameBits reports whether two float slices are equal bit for bit, NaNs
// of any payload matching each other (the wire carries NaN as null).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// matches reports whether a served result document equals a library
// result in every per-row field, bit for bit.
func matches(got httpapi.ResultJSON, want *core.Result) bool {
	if got.B != want.B || got.Complete != want.Complete || len(got.Order) != len(want.Order) ||
		!sameBits(got.Stat, want.Stat) || !sameBits(got.RawP, want.RawP) || !sameBits(got.AdjP, want.AdjP) {
		return false
	}
	for i := range got.Order {
		if got.Order[i] != want.Order[i] {
			return false
		}
	}
	if want.Sequential() {
		if got.Mode != want.Mode || got.PlannedB != want.PlannedB || len(got.BEffective) != len(want.BEff) {
			return false
		}
		for i := range want.BEff {
			if got.BEffective[i] != want.BEff[i] {
				return false
			}
		}
	}
	return true
}

// sameDoc reports whether two served result documents carry the same
// answer (ids and the cache-hit flag aside).
func sameDoc(a, b httpapi.ResultJSON) bool {
	a.ID, b.ID, a.CacheHit, b.CacheHit, a.NProcs, b.NProcs = "", "", false, false, 0, 0
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(ja) == string(jb)
}

// rowPerms is the row·permutation work a result stands for: rows times
// B, or the sum of the per-row effective counts of a sequential result.
func rowPerms(r httpapi.ResultJSON) float64 {
	if len(r.BEffective) > 0 {
		var s float64
		for _, b := range r.BEffective {
			s += float64(b)
		}
		return s
	}
	return float64(len(r.Stat)) * float64(r.B)
}
