package maxt

import (
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// The paper's Table I shape: 6102 genes, 76 samples in two classes of 38,
// Welch t, two-sided; permutations evaluated in batches of 64.
const (
	tableIRows  = 6102
	tableICols  = 76
	tableIBatch = 64
)

// tableIMatrix builds a synthetic Table I problem: roughly normal noise
// (a sum of four uniforms) with every tenth row shifted in class 1, so
// the significance order differs from the row order.
func tableIMatrix(b *testing.B) (matrix.Matrix, *stat.Design) {
	b.Helper()
	labels := make([]int, tableICols)
	for j := tableICols / 2; j < tableICols; j++ {
		labels[j] = 1
	}
	d, err := stat.NewDesign(stat.Welch, labels)
	if err != nil {
		b.Fatal(err)
	}
	m := matrix.New(tableIRows, tableICols)
	s := uint64(0x5eed)
	unif := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / (1 << 53)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = unif() + unif() + unif() + unif()
			if i%10 == 0 && labels[j] == 1 {
				row[j] += 0.5
			}
		}
	}
	return m, d
}

func tableIPrep(b *testing.B) *Prep {
	b.Helper()
	m, d := tableIMatrix(b)
	p, err := NewPrepMatrix(m, d, Abs, false)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// reportRowPerm reports the benchmark's wall time per row·permutation.
func reportRowPerm(b *testing.B, p *Prep, permsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(permsPerOp)*float64(p.Rows())), "ns/rowperm")
}

// BenchmarkCountTableI times the maxT counting layer alone: one batch of
// precomputed permutation statistics is counted and flushed into caller
// row order per iteration, exactly as ProcessBatched does after each
// kernel batch.
func BenchmarkCountTableI(b *testing.B) {
	p := tableIPrep(b)
	s := p.NewScratch()
	bk := p.Kernel.(stat.BatchKernel)
	labs := make([]int, tableIBatch*p.Design.N)
	perm.NewRandom(p.Design, 1, tableIBatch).Labels(0, tableIBatch, labs)
	out := matrix.New(tableIBatch, p.Rows())
	bk.StatsBatch(labs, out, bk.NewBatchScratch(tableIBatch))
	c := NewCounts(p.Rows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for bp := 0; bp < tableIBatch; bp++ {
			p.countPermutation(out.Row(bp), s.raw, s.adj)
		}
		p.flush(s, c, tableIBatch)
	}
	reportRowPerm(b, p, tableIBatch)
}

// BenchmarkProcessBatchedTableI times the whole batched loop — labels,
// stat kernel and counting — over four batches per iteration.
func BenchmarkProcessBatchedTableI(b *testing.B) {
	p := tableIPrep(b)
	const perms = 4 * tableIBatch
	gen := perm.NewRandom(p.Design, 1, 1<<40)
	s := p.NewScratch()
	c := NewCounts(p.Rows())
	ProcessBatched(p, gen, 0, perms, c, s, tableIBatch) // warm the batch buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i) * perms
		ProcessBatched(p, gen, lo, lo+perms, c, s, tableIBatch)
	}
	reportRowPerm(b, p, perms)
}
