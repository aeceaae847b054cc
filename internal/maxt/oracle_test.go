package maxt

import (
	"fmt"
	"math"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// oracleCountPermutation is the counting pass as it stood before the
// significance-ordered layout, kept as the oracle for the fused pass: z is
// in caller row order and is side-transformed in place, raw counts are a
// per-row pass, and the step-down pass gathers z[order[j]].
func oracleCountPermutation(p *Prep, z []float64, c *Counts) {
	order, obs := p.Order, p.Obs
	for i, t := range z {
		if math.IsNaN(t) {
			z[i] = math.Inf(-1)
		} else {
			z[i] = p.Side.transform(t)
		}
	}
	for i := range z {
		if !math.IsNaN(obs[i]) && z[i] >= obs[i] {
			c.Raw[i]++
		}
	}
	u := math.Inf(-1)
	for j := p.Valid - 1; j >= 0; j-- {
		r := order[j]
		if z[r] > u {
			u = z[r]
		}
		if u >= obs[r] {
			c.Adj[r]++
		}
	}
	c.B++
}

// oracleProcess is ProcessBatched as it stood before the layout change: a
// kernel over the caller-ordered matrix (rebuilt here from p.M) evaluates
// [lo, hi) of gen in batches through the scalar, batch or delta path, and
// oracleCountPermutation counts every permutation.
func oracleProcess(t *testing.T, p *Prep, gen perm.Generator, lo, hi int64, batch int) *Counts {
	t.Helper()
	m := matrix.New(p.M.Rows, p.M.Cols)
	for j, r := range p.Order {
		copy(m.Row(r), p.M.Row(j))
	}
	k, err := stat.NewKernel(p.Design, m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounts(p.Rows())
	n, rows := p.Design.N, p.Rows()
	bk, ok := k.(stat.BatchKernel)
	if batch <= 1 || !ok {
		lab, z := make([]int, n), make([]float64, rows)
		for idx := lo; idx < hi; idx++ {
			gen.Label(idx, lab)
			k.Stats(lab, z, nil)
			oracleCountPermutation(p, z, c)
		}
		return c
	}
	dk, okDK := k.(stat.DeltaKernel)
	dg, okDG := gen.(perm.DeltaGenerator)
	useDelta := okDK && okDG && dk.DeltaOK()
	bs := bk.NewBatchScratch(batch)
	labs, lab0 := make([]int, batch*n), make([]int, n)
	moves := make([]stat.Exchange, batch)
	for base := lo; base < hi; base += int64(batch) {
		nb := int(min(int64(batch), hi-base))
		out := matrix.New(nb, rows)
		if useDelta {
			dg.LabelsDelta(base, int64(nb), lab0, moves[:nb-1])
			dk.StatsDelta(lab0, moves[:nb-1], out, bs)
		} else {
			gen.Labels(base, int64(nb), labs[:nb*n])
			bk.StatsBatch(labs[:nb*n], out, bs)
		}
		for bp := 0; bp < nb; bp++ {
			oracleCountPermutation(p, out.Row(bp), c)
		}
	}
	return c
}

// oracleMatrix is batchMatrix (ties and NA holes) plus the rows that
// stress the counting edge cases: an all-NaN row, a constant row (a NaN
// statistic from zero variance), and exact duplicates of two rows (tied
// observed statistics at adjacent significance positions).
func oracleMatrix(cols int, seed uint64) matrix.Matrix {
	base := batchMatrix(21, cols, seed)
	m := matrix.New(base.Rows+4, cols)
	copy(m.Data, base.Data)
	for j := 0; j < cols; j++ {
		m.Row(21)[j] = math.NaN()
		m.Row(22)[j] = 3
	}
	copy(m.Row(23), m.Row(0))
	copy(m.Row(24), m.Row(2))
	return m
}

func sameCounts(t *testing.T, label string, got, want *Counts) {
	t.Helper()
	if got.B != want.B {
		t.Fatalf("%s: B = %d, oracle %d", label, got.B, want.B)
	}
	for i := range want.Raw {
		if got.Raw[i] != want.Raw[i] || got.Adj[i] != want.Adj[i] {
			t.Fatalf("%s row %d: counts (%d,%d), oracle (%d,%d)",
				label, i, got.Raw[i], got.Adj[i], want.Raw[i], want.Adj[i])
		}
	}
}

// TestFusedCountsMatchOracle holds the significance-ordered layout and the
// fused counting pass to the gather-based counter they replaced: for every
// test, side, nonpara setting, generator (random, complete, and the
// revolving door's delta path where the design has one), batch size and
// entry point, the accumulated counts must be identical.
func TestFusedCountsMatchOracle(t *testing.T) {
	for _, tc := range batchDesigns(t) {
		d, err := stat.NewDesign(tc.test, tc.labels)
		if err != nil {
			t.Fatal(err)
		}
		m := oracleMatrix(d.N, 0x0dd^uint64(tc.test))
		for _, side := range []Side{Abs, Upper, Lower} {
			for _, nonpara := range []bool{false, true} {
				p, err := NewPrepMatrix(m, d, side, nonpara)
				if err != nil {
					t.Fatal(err)
				}
				if p.Valid == p.Rows() {
					t.Fatalf("%s: the all-NaN row has a statistic", tc.name)
				}
				const B = 150
				gens := map[string]perm.Generator{"random": perm.NewRandom(d, 7, B)}
				if c, err := perm.NewComplete(d); err == nil && c.Total() <= 4096 {
					gens["complete"] = c
				}
				if door, err := perm.NewRevolvingDoor(d); err == nil {
					gens["door"] = door
				}
				for gname, gen := range gens {
					total := min(B, gen.Total())
					label := fmt.Sprintf("%s/%v/nonpara=%v/%s", tc.name, side, nonpara, gname)
					got := NewCounts(p.Rows())
					Process(p, gen, 0, total, got, nil)
					sameCounts(t, label+"/Process", got, oracleProcess(t, p, gen, 0, total, 1))
					s := p.NewScratch()
					for _, batch := range []int{1, 7, 64} {
						want := oracleProcess(t, p, gen, 0, total, batch)
						// Three calls into one Counts: each call's
						// positional counts must land on top of the last.
						got := NewCounts(p.Rows())
						for _, r := range [][2]int64{{0, total / 3}, {total / 3, total - 5}, {total - 5, total}} {
							ProcessBatched(p, gen, r[0], r[1], got, s, batch)
						}
						sameCounts(t, fmt.Sprintf("%s/batch=%d", label, batch), got, want)
					}
				}
			}
		}
	}
}

// TestCountPermutationInfinitiesAndTies drives the counting pass alone
// with the values the kernels rarely produce: ±Inf and NaN permutation
// statistics, ±Inf and signed-zero observed statistics, and permutation
// statistics tied exactly with observed ones.
func TestCountPermutationInfinitiesAndTies(t *testing.T) {
	vals := []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 1, 2, math.Inf(1), math.NaN()}
	s := uint64(99)
	pick := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return vals[(s>>33)%uint64(len(vals))]
	}
	const rows = 40
	for _, side := range []Side{Abs, Upper, Lower} {
		p := &Prep{Side: side, Stat: make([]float64, rows), Obs: make([]float64, rows)}
		for i := range p.Stat {
			p.Stat[i] = pick()
			p.Obs[i] = math.NaN()
			if !math.IsNaN(p.Stat[i]) {
				p.Obs[i] = side.transform(p.Stat[i])
			}
		}
		p.Order, p.Valid = stepDownOrder(p.Obs)
		p.sobs = make([]float64, p.Valid)
		for j, r := range p.Order[:p.Valid] {
			p.sobs[j] = p.Obs[r]
		}
		sc := &Scratch{}
		p.ensureCounts(sc)
		want, got := NewCounts(rows), NewCounts(rows)
		zc, zp := make([]float64, rows), make([]float64, rows)
		for k := 0; k < 500; k++ {
			for i := range zc {
				zc[i] = pick()
			}
			for j, r := range p.Order {
				zp[j] = zc[r]
			}
			oracleCountPermutation(p, zc, want)
			p.countPermutation(zp, sc.raw, sc.adj)
		}
		p.flush(sc, got, 500)
		sameCounts(t, side.String(), got, want)
	}
}
