package core

import (
	"fmt"

	"sprint/internal/maxt"
	"sprint/internal/seqstop"
)

// This file is the sequential (early-stopping) engine's state: the range
// executor (execute, run.go) consults it at every window boundary to
// apply the seqstop rules.  The design invariant that keeps it honest:
//
//   - A row's RAW count is independent of every other row, and its
//     step-down ADJUSTED count depends only on rows at or below its
//     position in the significance order (the successive maximum at
//     position j is taken over positions >= j).
//   - Therefore rows may stop CONTRIBUTING (freeze) individually — their
//     counts simply stop accumulating, pinning the estimate count/b_eff —
//     but may leave the COMPUTATION only as a frozen prefix of the order.
//     Dropping that prefix (maxt.Prep.Subset) leaves every still-active
//     row's statistics, maxima and counts bit-for-bit what the full
//     computation would produce: sequential mode never approximates an
//     active row, it only truncates each row's permutation prefix.
//
// Every stopping decision is a pure function of the deterministic counts
// at a window boundary, so a cancelled-and-resumed sequential run (same
// window length) reproduces an uninterrupted one exactly — the same
// checkpoint/resume guarantee the exact engine has.

// DefaultSeqWindow is the stopping-rule evaluation window, in
// permutations, used when RunControl.Every asks for "one window" (< 1).
// Exact mode treats that as the whole remaining run; sequential mode
// must still evaluate the rule periodically or it could never stop
// early, so it falls back to this.
const DefaultSeqWindow = 4096

// seqState is the executor's optional sequential state: the stopping
// rule's tracker, whose BEff is the frozen-row mask, and the kernel prep
// compacted to the suffix of the significance order still needed.
type seqState struct {
	t       *seqstop.Tracker
	full    *maxt.Prep
	sub     *maxt.Prep // the kernel's prep: full until the first compaction
	rows    []int      // sub row -> matrix row; nil = identity
	removed int        // length of the frozen prefix sub no longer holds
}

func newSeqState(cfg config, prep *maxt.Prep) (*seqState, error) {
	sc, err := seqstop.New(cfg.seqAlpha, cfg.seqTol, prep.Valid)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &seqState{t: seqstop.NewTracker(sc, prep.Order, prep.Valid), full: prep, sub: prep}, nil
}

// compact rebuilds the kernel's prep without the frozen prefix and
// reports whether it did.  Unless force is set (a resumed run re-drops
// everything its checkpoint froze), it waits until the droppable prefix
// is a worthwhile fraction of what the kernel still computes.  The first
// compaction also sheds rows with no computable statistic (positions >=
// Valid), which contribute nothing to any count.  Compaction timing never
// changes a count: frozen rows are masked out of every merge either way.
func (s *seqState) compact(force bool) (bool, error) {
	pfx := s.t.FrozenPrefix()
	if pfx <= s.removed || pfx >= s.full.Valid {
		return false, nil
	}
	if d := pfx - s.removed; !force && (d < 32 || d*4 < s.sub.Rows()) {
		return false, nil
	}
	rows := append([]int(nil), s.full.Order[pfx:s.full.Valid]...)
	sub, err := s.full.Subset(rows)
	if err != nil {
		return false, err
	}
	s.sub, s.rows, s.removed = sub, rows, pfx
	return true, nil
}

// SeqAllSettled reports whether merged exceedance counts covering
// counts.B sampled permutations satisfy the sequential stopping rule for
// EVERY valid row — the whole-job termination test a cluster coordinator
// applies to its merge ledger before broadcasting a stop.  Per-row
// freezing does not apply across shards (a shard never holds the global
// prefix), so distribution uses this all-rows rule only.  frozen (nil =
// none) marks rows a resumed checkpoint froze: frozen[i] != 0 pins row
// i's counts at that effective permutation count, and the row counts as
// settled — it satisfied the per-row rule before the handoff.
func SeqAllSettled(p *Prepared, opt Options, counts *maxt.Counts, frozen []int64) (bool, error) {
	cfg, _, err := p.planFor(opt)
	if err != nil {
		return false, err
	}
	if cfg.mode != modeSequential {
		return false, fmt.Errorf("core: SeqAllSettled requires mode \"sequential\"")
	}
	prep := p.prep
	if len(counts.Raw) != prep.Rows() || len(counts.Adj) != prep.Rows() {
		return false, fmt.Errorf("core: count vectors have %d/%d rows, prep has %d", len(counts.Raw), len(counts.Adj), prep.Rows())
	}
	if frozen != nil && len(frozen) != prep.Rows() {
		return false, fmt.Errorf("core: frozen vector has %d rows, prep has %d", len(frozen), prep.Rows())
	}
	sc, err := seqstop.New(cfg.seqAlpha, cfg.seqTol, prep.Valid)
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	for _, r := range prep.Order[:prep.Valid] {
		if frozen != nil && frozen[r] != 0 {
			continue
		}
		if !sc.Settled(counts.Raw[r], counts.B) || !sc.Settled(counts.Adj[r], counts.B) {
			return false, nil
		}
	}
	return true, nil
}
