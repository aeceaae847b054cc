package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sprint/internal/matrix"
	"sprint/internal/maxt"
	"sprint/internal/perm"
)

// This file holds the engine's one execution path: execute runs a range
// of the permutation sequence in windows, so that a supervisor can
// observe progress, cancel the run between windows, and persist
// resumable checkpoints.  The kernel of each window is chunked over ranks
// exactly as Figure 2 of the paper chunks the whole sequence — counts
// merge by int64 addition, so the result is bit-identical to the serial
// run for every rank count, window size and resume point.  MaxT, Run,
// RunPrepared, RunShard and every rank of the pmaxT collective call it.

// RunControl carries the service hooks of a supervised run.  The zero value
// is an uncheckpointed run equivalent to MaxT, parallel over every CPU.
type RunControl struct {
	// Ctx cancels the run between windows; nil means never.  A cancelled
	// run returns the context's error: the last saved checkpoint is the
	// resume point.
	Ctx context.Context
	// NProcs is the number of goroutine ranks the kernel of each window is
	// chunked over; values < 1 select runtime.GOMAXPROCS(0), i.e. every
	// available CPU.  Results are bit-identical at any rank count.
	NProcs int
	// Resume continues a previous run from its checkpoint.  The checkpoint
	// must match the analysis (ErrCheckpointMismatch otherwise).
	Resume *Checkpoint
	// Every is the window length in permutations — the granularity of
	// progress, cancellation and checkpoints.  Values < 1 select the whole
	// remaining run as one window.
	Every int64
	// Save, when non-nil, receives a snapshot after every window.  An
	// error from Save aborts the run.
	Save func(*Checkpoint) error
	// OnProgress, when non-nil, is called after every window with the
	// number of permutations processed so far (including resumed ones) and
	// the planned total.
	OnProgress func(done, total int64)
	// OnWindow, when non-nil, receives each kernel window's permutation
	// count and wall time right after the window's counts merge — the
	// timing hook the serving layer feeds its per-stage histograms from.
	// It runs on the run's supervising goroutine and must be cheap and
	// allocation-free: it sits inside the hot loop.
	OnWindow func(perms int64, elapsed time.Duration)
	// OnSeq, when non-nil, is called after every sequential-mode window
	// with the number of rows still accumulating and the per-row
	// permutation evaluations already saved relative to the planned total.
	// Never called in exact mode.
	OnSeq func(activeRows int, permsSaved int64)
	// Scratch, when non-nil, supplies reusable per-rank working state.  A
	// long-lived caller (the jobs worker pool) passes one RunScratch per
	// worker so that consecutive jobs reuse kernel scratch, batch buffers
	// and partial-count vectors instead of reallocating them.
	Scratch *RunScratch
}

// RunScratch owns the per-rank mutable state of supervised runs: maxt
// scratch (including the permutation-batch buffers) and partial counts.
// It is resized on demand, may be reused across analyses of any shape or
// test, and must not be shared by concurrent runs.
type RunScratch struct {
	scratches []*maxt.Scratch
	partials  []*maxt.Counts
}

// ensure sizes the scratch for a run of prep over nprocs ranks.
func (rs *RunScratch) ensure(prep *maxt.Prep, nprocs int) {
	for len(rs.scratches) < nprocs {
		rs.scratches = append(rs.scratches, nil)
		rs.partials = append(rs.partials, nil)
	}
	for r := 0; r < nprocs; r++ {
		rs.scratches[r] = prep.ScratchFrom(rs.scratches[r])
		if rs.partials[r] == nil {
			rs.partials[r] = maxt.NewCounts(prep.Rows())
		} else {
			rs.partials[r].Reset(prep.Rows())
		}
	}
}

// ranks resolves NProcs: values < 1 select every available CPU.
func (ctl RunControl) ranks() int {
	if ctl.NProcs < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return ctl.NProcs
}

// execute runs permutation indices [lo, hi) of plan over p — continuing
// from ctl.Resume when set — in windows of ctl.Every permutations, each
// chunked over ctl's ranks, and returns the merged counts with the first
// unprocessed index: hi on success, the last completed window boundary
// when ctl.Ctx cancels (counts then hold a valid partial below it, which
// is what lets a draining worker hand its progress back).  seq, when
// non-nil, applies the sequential stopping rules at every window
// boundary: frozen rows are masked out of every merge and the run ends
// once every row is frozen.  counts is nil only when the run could not
// start.
func (p *Prepared) execute(cfg config, plan Plan, lo, hi int64, ctl RunControl, seq *seqState) (*maxt.Counts, int64, error) {
	counts := maxt.NewCounts(plan.Rows)
	if r := ctl.Resume; r != nil {
		if err := plan.checkResume(r, lo, hi, seq != nil); err != nil {
			return nil, lo, err
		}
		copy(counts.Raw, r.Raw)
		copy(counts.Adj, r.Adj)
		counts.B, lo = r.Done, r.Next
		if seq != nil {
			if err := seq.t.Restore(r.BEff); err != nil {
				return nil, lo, fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
			}
			if _, err := seq.compact(true); err != nil {
				return nil, lo, err
			}
		}
	}
	if lo >= hi {
		return counts, lo, nil
	}
	gen, err := p.generatorFor(cfg, plan, lo, hi)
	if err != nil {
		return nil, lo, err
	}
	nprocs := ctl.ranks()
	batch := cfg.effectiveBatch()
	every := ctl.Every
	if every < 1 {
		every = hi - lo
		if seq != nil {
			every = DefaultSeqWindow
		}
	}
	// Align every window (and therefore every checkpoint boundary) to a
	// whole number of kernel batches, so no window ends on a ragged tail
	// batch.  A checkpoint taken at ANY boundary — including one saved
	// with an unaligned window — remains a valid resume point, because
	// counts are a pure prefix sum over the permutation sequence.
	eb := int64(batch)
	every = (every + eb - 1) / eb * eb

	rs := ctl.Scratch
	if rs == nil {
		rs = &RunScratch{}
	}
	kp, rows := p.prep, []int(nil)
	if seq != nil {
		kp, rows = seq.sub, seq.rows
	}
	rs.ensure(kp, nprocs)

	for lo < hi && (seq == nil || !seq.t.AllFrozen()) {
		if ctl.Ctx != nil {
			if err := ctl.Ctx.Err(); err != nil {
				return counts, lo, fmt.Errorf("core: run stopped at permutation %d of %d: %w", lo, plan.TotalB, err)
			}
		}
		next := min(lo+every, hi)
		span := next - lo
		var windowStart time.Time
		if ctl.OnWindow != nil {
			windowStart = time.Now()
		}
		if nprocs == 1 && seq == nil {
			// One exact rank accumulates straight into counts.
			maxt.ProcessBatched(kp, gen, lo, next, counts, rs.scratches[0], batch)
		} else {
			var wg sync.WaitGroup
			for r := 0; r < nprocs; r++ {
				// Rank boundaries inside the window align to batch
				// multiples (relative to the window start), so only the
				// window's last rank can see a ragged tail batch.
				clo := lo + alignBoundary(span*int64(r)/int64(nprocs), span, batch)
				chi := lo + alignBoundary(span*int64(r+1)/int64(nprocs), span, batch)
				if clo == chi {
					continue
				}
				wg.Add(1)
				go func(r int, clo, chi int64) {
					defer wg.Done()
					maxt.ProcessBatched(kp, gen, clo, chi, rs.partials[r], rs.scratches[r], batch)
				}(r, clo, chi)
			}
			wg.Wait()
			for _, pc := range rs.partials[:nprocs] {
				if pc.B == 0 {
					continue
				}
				if seq == nil {
					counts.Merge(pc)
				} else {
					// Frozen rows stay pinned at their freeze boundary even
					// while the kernel still computes them (until the next
					// compaction).
					counts.MergeMasked(pc, rows, seq.t.BEff())
				}
				pc.Reset(len(pc.Raw))
			}
		}
		if ctl.OnWindow != nil {
			ctl.OnWindow(span, time.Since(windowStart))
		}
		lo = next
		if seq != nil {
			seq.t.Observe(counts.Raw, counts.Adj, counts.B)
		}
		if ctl.Save != nil {
			snap := &Checkpoint{
				Fingerprint: plan.Fingerprint,
				TotalB:      plan.TotalB,
				Complete:    plan.Complete,
				Next:        lo,
				Raw:         append([]int64(nil), counts.Raw...),
				Adj:         append([]int64(nil), counts.Adj...),
				Done:        counts.B,
			}
			if seq != nil {
				snap.BEff = append([]int64(nil), seq.t.BEff()...)
			}
			if err := ctl.Save(snap); err != nil {
				return counts, lo, fmt.Errorf("core: checkpoint save at permutation %d: %w", lo, err)
			}
		}
		if ctl.OnProgress != nil {
			ctl.OnProgress(counts.B, plan.TotalB)
		}
		if seq != nil {
			if ctl.OnSeq != nil {
				ctl.OnSeq(p.prep.Valid-seq.t.FrozenRows(), seq.t.PermsSaved(plan.TotalB))
			}
			compacted, err := seq.compact(false)
			if err != nil {
				return counts, lo, err
			}
			if compacted {
				kp, rows = seq.sub, seq.rows
				rs.ensure(kp, nprocs)
			}
		}
	}
	return counts, lo, nil
}

// checkResume validates a checkpoint resuming a run of [lo, hi) of the
// plan, naming the field that drifted so mismatches are debuggable: the
// analysis identity, the range (its counts must cover [lo, Next) with
// Next inside [lo, hi]) and the mode (only sequential runs carry freeze
// state).
func (pl Plan) checkResume(r *Checkpoint, lo, hi int64, seq bool) error {
	switch {
	case r.Fingerprint != pl.Fingerprint:
		return ckptMismatch("fingerprint", fmt.Sprintf("%016x", r.Fingerprint), fmt.Sprintf("%016x", pl.Fingerprint))
	case r.TotalB != pl.TotalB:
		return ckptMismatch("TotalB", r.TotalB, pl.TotalB)
	case r.Complete != pl.Complete:
		return ckptMismatch("Complete", r.Complete, pl.Complete)
	case len(r.Raw) != pl.Rows || len(r.Adj) != pl.Rows:
		return ckptMismatch("rows", fmt.Sprintf("%d raw / %d adj counts", len(r.Raw), len(r.Adj)), pl.Rows)
	case r.Next-r.Done != lo || r.Next < lo || r.Next > hi:
		return ckptMismatch("range", fmt.Sprintf("counts over [%d, %d)", r.Next-r.Done, r.Next), fmt.Sprintf("a prefix of [%d, %d)", lo, hi))
	case r.BEff != nil && !seq:
		return ckptMismatch("mode", "sequential freeze state", "an exact-mode checkpoint")
	case r.BEff != nil && len(r.BEff) != pl.Rows:
		return ckptMismatch("BEff rows", len(r.BEff), pl.Rows)
	}
	return nil
}

// generatorFor builds the permutation generator serving indices
// [lo, hi) of the plan's sequence.  Complete and fixed-seed generators
// index the whole sequence in O(1) per draw; the stored generator
// materialises exactly the requested chunk (paying one pass of discards
// over [1, lo), the paper's "cycle the stream forward" cost).
func (p *Prepared) generatorFor(cfg config, plan Plan, lo, hi int64) (perm.Generator, error) {
	switch {
	case plan.Complete:
		return cfg.completeGen(p.design)
	case cfg.fixedSeed:
		return perm.NewRandom(p.design, cfg.seed, plan.TotalB), nil
	default:
		return perm.NewStored(p.design, cfg.seed, plan.TotalB, lo, hi), nil
	}
}

// Run executes the permutation testing function under the given control.
// Results are bit-identical to MaxT with the same options, regardless of
// NProcs, Every and any cancel/resume history.
func Run(x [][]float64, classlabel []int, opt Options, ctl RunControl) (*Result, error) {
	m, err := rowsInput(x)
	if err != nil {
		return nil, err
	}
	return RunMatrix(m, classlabel, opt, ctl)
}

// RunMatrix is Run on the flat matrix the engine computes on; x is not
// modified.  Large callers (the job server) use it directly so the only
// full-matrix copies left are the NA scrub (skipped when clean) and the
// prep's private transform copy.  It is Prepare + RunPrepared in one call;
// callers that run many analyses over one dataset should hold the
// Prepared themselves (or submit by dataset id to the job server) so the
// preparation is paid once, not per run.
func RunMatrix(x matrix.Matrix, classlabel []int, opt Options, ctl RunControl) (*Result, error) {
	// Observe cancellation before the expensive setup too (preparation
	// and the stored generator materialise the whole remaining run), so
	// a drained shutdown queue costs nothing per job.
	if ctl.Ctx != nil {
		if err := ctl.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: run not started: %w", err)
		}
	}
	p, err := Prepare(x, classlabel, opt)
	if err != nil {
		return nil, err
	}
	res, err := RunPrepared(p, opt, ctl)
	if err != nil {
		return nil, err
	}
	// The preparation happened inline on this call: charge its cost to
	// the historical profile sections (scrub is pre-processing, design +
	// prep build is data creation), exactly as the pre-split code timed
	// them.
	res.Profile.PreProcessing += p.scrubTime
	res.Profile.CreateData += p.buildTime
	return res, nil
}

// CanonicalOptions validates opt and returns it with the documented
// defaults filled in — the form under which two option sets describe the
// same analysis iff they are equal.  A job server uses it both to reject
// bad submissions early and to build content-addressed cache keys.
func CanonicalOptions(opt Options) (Options, error) {
	cfg, err := parseOptions(opt)
	if err != nil {
		return opt, err
	}
	return Options{
		Test:              cfg.test.String(),
		Side:              cfg.side.String(),
		FixedSeedSampling: boolToYN(cfg.fixedSeed),
		B:                 cfg.b,
		NA:                cfg.na,
		Nonpara:           boolToYN(cfg.nonpara),
		Seed:              cfg.seed,
		MaxComplete:       cfg.maxComplete,
		ScalarParams:      cfg.scalarParams,
		// Like ScalarParams, BatchSize and PermOrder are preserved (they
		// still select the execution strategy) but never hashed into
		// content keys: results are bitwise identical at every batch size
		// and under every enumeration order.
		BatchSize: cfg.batch,
		PermOrder: cfg.order.String(),
		// Mode names the engine; the sequential knobs canonicalise to
		// their resolved values in sequential mode and to zero in exact
		// mode, where they cannot affect anything.  Content keys hash the
		// three fields only for sequential jobs, so every exact-mode key
		// is byte-identical to the keys earlier engines produced.
		Mode:         cfg.mode.String(),
		SeqAlpha:     cfg.seqAlpha,
		SeqTolerance: cfg.seqTol,
	}, nil
}
