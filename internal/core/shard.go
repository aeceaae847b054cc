package core

import (
	"fmt"
	"time"

	"sprint/internal/maxt"
)

// This file is the distribution surface of the engine: the paper's Step
// 4a/4b split — partition the permutation range [0, B) across ranks,
// compute local exceedance counts, merge — lifted from goroutine ranks
// inside one process (RunPrepared) to shards computed on separate nodes.
// The contract that makes that lift bitwise-safe is narrow and worth
// stating once:
//
//   - Every generator enumerates ONE deterministic permutation sequence
//     fixed by (options, design); any [lo, hi) slice of it can be
//     produced on any node (Random indexes in O(1), Complete and
//     RevolvingDoor unrank, Stored materialises exactly the chunk).
//   - Exceedance counts are int64 sums over disjoint index ranges, so
//     merging shard counts is commutative and associative: ANY partition
//     merged in ANY order yields the same vectors, provided each index
//     is counted exactly once.
//   - Finalize is a pure function of (Prep, merged counts).
//
// Plan captures the shared identity every node must agree on; RunShard
// computes one range; Finalize turns merged counts into the Result.
// RunPrepared is the single-node composition of the same pieces: all of
// them run the kernel through one range executor (execute, run.go).

// Plan is the resolved permutation plan of an analysis: everything a
// set of nodes must agree on before splitting the range.  Two nodes
// with equal fingerprints enumerate the same permutation sequence over
// the same prepared data, so their shard counts may be merged.
type Plan struct {
	// TotalB is the planned permutation count, observed labelling
	// included; shards partition [0, TotalB).
	TotalB int64
	// Complete records the generator choice and Door the resolved
	// enumeration order of complete two-sample runs.
	Complete bool
	Door     bool
	// Rows is the per-shard count vector length.
	Rows int
	// Fingerprint ties shard results to the analysis identity, exactly
	// as it ties checkpoints: engine version, validated options,
	// enumeration order, labels and a data sample.
	Fingerprint uint64
}

// PlanRun resolves opt against the preparation without running anything.
func PlanRun(p *Prepared, opt Options) (Plan, error) {
	_, plan, err := p.planFor(opt)
	return plan, err
}

// ShardCounts is the partial result of one shard: exceedance counts
// over the contiguous global index range [Lo, Next) of the plan's
// permutation sequence.  Next < Hi of the requested range marks a
// partial shard (the node drained or was cancelled mid-range); the
// unprocessed remainder [Next, Hi) must be computed elsewhere.
type ShardCounts struct {
	Plan     Plan
	Lo, Next int64
	Counts   *maxt.Counts
}

// RunShard computes exceedance counts for the global permutation index
// range [lo, hi) of the plan opt resolves to over p.  It is the worker
// half of the distributed Step 4b: bit-for-bit the counts a single-node
// run accumulates over the same indices, for every test, kernel and
// enumeration order, because the generator slice and the kernel are the
// single-node ones.
//
// ctl.Resume may carry a shard checkpoint previously saved through
// ctl.Save during a run of the SAME range: it is accepted when the
// fingerprint, plan and range agree (its counts cover [lo, Next) with
// Next inside the shard) and rejected with ErrCheckpointMismatch
// otherwise.  On context cancellation RunShard returns the error AND a
// ShardCounts whose Next marks the last completed window boundary —
// counts below it are valid and mergeable, so a draining worker ships
// them instead of wasting the work.
func RunShard(p *Prepared, opt Options, lo, hi int64, ctl RunControl) (*ShardCounts, error) {
	cfg, plan, err := p.planFor(opt)
	if err != nil {
		return nil, err
	}
	if cfg.mode == modeSequential {
		// Per-row freezing needs the global prefix counts, which one shard
		// never holds: sequential stopping is coordinated ABOVE the shard
		// level (the coordinator evaluates merged counts and cancels
		// in-flight shards), so shards themselves always run exact.
		return nil, fmt.Errorf("core: RunShard rejects mode \"sequential\": shards compute exact counts; the coordinator applies the stopping rule to the merge")
	}
	if lo < 0 || hi > plan.TotalB || lo >= hi {
		return nil, fmt.Errorf("core: shard range [%d, %d) outside plan [0, %d)", lo, hi, plan.TotalB)
	}
	counts, next, err := p.execute(cfg, plan, lo, hi, ctl, nil)
	if counts == nil {
		return nil, err
	}
	return &ShardCounts{Plan: plan, Lo: lo, Next: next, Counts: counts}, err
}

// Finalize converts merged exceedance counts into the final Result: the
// deterministic Step 5 every path applies once its counts are merged.
// In exact mode counts must cover the whole plan (counts.B == TotalB)
// and frozen must be nil; the Result is then bitwise identical to a
// single-node run, no matter how the range was partitioned or in which
// order shards merged.  In sequential mode counts cover counts.B <=
// TotalB sampled permutations, and frozen (nil = none) pins each row
// with frozen[i] != 0 at that effective permutation count — the caller
// must have masked those rows out of every merge past it (see
// maxt.Counts.MergeMasked) — while every other valid row takes counts.B.
func Finalize(p *Prepared, opt Options, counts *maxt.Counts, frozen []int64) (*Result, error) {
	cfg, plan, err := p.planFor(opt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := p.finalize(cfg, plan, counts, frozen)
	if err != nil {
		return nil, err
	}
	res.Profile.ComputePValues = time.Since(start)
	return res, nil
}

// finalize is Finalize over a resolved plan.
func (p *Prepared) finalize(cfg config, plan Plan, counts *maxt.Counts, frozen []int64) (*Result, error) {
	if len(counts.Raw) != plan.Rows || len(counts.Adj) != plan.Rows {
		return nil, fmt.Errorf("core: merged count vectors have %d/%d rows, want %d", len(counts.Raw), len(counts.Adj), plan.Rows)
	}
	if cfg.mode != modeSequential {
		if frozen != nil {
			return nil, fmt.Errorf("core: frozen rows require mode \"sequential\"")
		}
		if counts.B != plan.TotalB {
			return nil, fmt.Errorf("core: merged permutation count %d, want %d", counts.B, plan.TotalB)
		}
		final := maxt.Finalize(p.prep, counts)
		return &Result{
			Stat: final.Stat, RawP: final.RawP, AdjP: final.AdjP, Order: final.Order,
			B: final.B, Complete: plan.Complete,
		}, nil
	}
	if counts.B < 1 || counts.B > plan.TotalB {
		return nil, fmt.Errorf("core: merged permutation count %d outside (0, %d]", counts.B, plan.TotalB)
	}
	if frozen != nil && len(frozen) != plan.Rows {
		return nil, fmt.Errorf("core: frozen vector has %d rows, want %d", len(frozen), plan.Rows)
	}
	bEff := make([]int64, plan.Rows)
	for _, r := range p.prep.Order[:p.prep.Valid] {
		bEff[r] = counts.B
		if frozen != nil && frozen[r] != 0 {
			bEff[r] = frozen[r]
		}
	}
	final := maxt.FinalizeEffective(p.prep, counts, bEff)
	return &Result{
		Stat: final.Stat, RawP: final.RawP, AdjP: final.AdjP, Order: final.Order,
		B: counts.B, Mode: ModeSequential, PlannedB: plan.TotalB, BEff: bEff,
	}, nil
}

// PartitionShards splits [0, totalB) into n contiguous, deterministic
// windows following the paper's Figure-2 rank partitioning (Chunk):
// equal spans up to remainder, observed labelling in the first window.
// Empty windows (n > totalB) are dropped.
func PartitionShards(totalB int64, n int) [][2]int64 {
	if n < 1 {
		n = 1
	}
	out := make([][2]int64, 0, n)
	for r := 0; r < n; r++ {
		lo, hi := Chunk(totalB, n, r)
		if lo < hi {
			out = append(out, [2]int64{lo, hi})
		}
	}
	return out
}
