package maxt

import (
	"math"
	"testing"

	"sprint/internal/perm"
	"sprint/internal/stat"
)

// TestSubsetCountsBitwiseEqualFullPrep is the sequential engine's load-
// bearing invariant: processing a suffix of the significance order through
// a compacted sub-prep accumulates, permutation for permutation, exactly
// the counts the full prep produces for the same rows.
func TestSubsetCountsBitwiseEqualFullPrep(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	const B = 400
	full := NewCounts(p.Rows())
	Process(p, perm.NewRandom(p.Design, 21, B), 0, B, full, nil)

	// Drop every possible frozen prefix of the order (the subset API's
	// contract: a contiguous suffix run of computable positions).
	for prefix := 0; prefix < p.Valid; prefix++ {
		rows := make([]int, p.Valid-prefix)
		for i := range rows {
			rows[i] = p.Order[prefix+i]
		}
		sub, err := p.Subset(rows)
		if err != nil {
			t.Fatalf("prefix %d: %v", prefix, err)
		}
		// A subset is a re-slice of its parent's significance-ordered
		// matrix, not a copy.
		if &sub.M.Data[0] != &p.M.Data[prefix*p.M.Cols] {
			t.Fatalf("prefix %d: subset matrix does not share the parent's backing array", prefix)
		}
		subCounts := NewCounts(sub.Rows())
		Process(sub, perm.NewRandom(p.Design, 21, B), 0, B, subCounts, nil)
		for si, r := range rows {
			if subCounts.Raw[si] != full.Raw[r] || subCounts.Adj[si] != full.Adj[r] {
				t.Fatalf("prefix %d row %d: sub (raw=%d,adj=%d) != full (raw=%d,adj=%d)",
					prefix, r, subCounts.Raw[si], subCounts.Adj[si], full.Raw[r], full.Adj[r])
			}
		}
		if subCounts.B != full.B {
			t.Fatalf("prefix %d: sub B=%d, full B=%d", prefix, subCounts.B, full.B)
		}
	}
}

// TestSubsetBatchedEqualsUnbatched guards the compacted prep down the
// batched kernel path the sequential engine actually runs.
func TestSubsetBatchedEqualsUnbatched(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	const B = 256
	rows := make([]int, p.Valid-1)
	for i := range rows {
		rows[i] = p.Order[1+i]
	}
	sub, err := p.Subset(rows)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewCounts(sub.Rows())
	Process(sub, perm.NewRandom(p.Design, 5, B), 0, B, plain, nil)
	batched := NewCounts(sub.Rows())
	ProcessBatched(sub, perm.NewRandom(p.Design, 5, B), 0, B, batched, sub.NewScratch(), 64)
	for i := range plain.Raw {
		if plain.Raw[i] != batched.Raw[i] || plain.Adj[i] != batched.Adj[i] {
			t.Fatalf("row %d: batched subset counts differ", i)
		}
	}
}

func TestSubsetValidation(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	if _, err := p.Subset(nil); err == nil {
		t.Error("empty subset accepted")
	}
	if _, err := p.Subset([]int{p.Rows()}); err == nil {
		t.Error("out-of-range row accepted")
	}
	// A row with no computable statistic may not enter a subset.
	x := [][]float64{
		{1, 2, 1.5, 8, 9, 8.5},
		{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()},
	}
	pn := mustPrep(t, x, stat.Welch, tinyLabels, Abs)
	if _, err := pn.Subset([]int{1}); err == nil {
		t.Error("NaN-statistic row accepted into a subset")
	}
	// Only a contiguous run of the significance order is a subset.
	o := p.Order
	for _, rows := range [][]int{
		{o[0], o[2]},       // a gap
		{o[1], o[0]},       // out of order
		{o[0], o[1], o[1]}, // a repeat
	} {
		if _, err := p.Subset(rows); err == nil {
			t.Errorf("non-contiguous rows %v accepted (order %v)", rows, o)
		}
	}
}

// TestFinalizeEffectiveUniformMatchesFinalize: with a uniform bEff equal
// to the shared B, the effective finalisation is exactly the classic one.
func TestFinalizeEffectiveUniformMatchesFinalize(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	const B = 300
	c := NewCounts(p.Rows())
	Process(p, perm.NewRandom(p.Design, 13, B), 0, B, c, nil)

	want := Finalize(p, c)
	bEff := make([]int64, p.Rows())
	for j := 0; j < p.Valid; j++ {
		bEff[p.Order[j]] = c.B
	}
	got := FinalizeEffective(p, c, bEff)
	for i := range want.RawP {
		if math.Float64bits(want.RawP[i]) != math.Float64bits(got.RawP[i]) ||
			math.Float64bits(want.AdjP[i]) != math.Float64bits(got.AdjP[i]) {
			t.Fatalf("row %d: uniform effective (%v,%v) != classic (%v,%v)",
				i, got.RawP[i], got.AdjP[i], want.RawP[i], want.AdjP[i])
		}
	}
}

// TestFinalizeEffectivePerRowDivisors: each row divides by its own
// effective count, rows with bEff 0 get NaN, and the adjusted values stay
// monotone along the order.
func TestFinalizeEffectivePerRowDivisors(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	c := NewCounts(p.Rows())
	bEff := make([]int64, p.Rows())
	for j := 0; j < p.Valid; j++ {
		r := p.Order[j]
		bEff[r] = int64(100 * (j + 1))
		c.Raw[r] = int64(j + 1)
		c.Adj[r] = int64(j + 1)
	}
	c.B = 600
	// One frozen-out row: simulate a row with no effective count.
	drop := p.Order[p.Valid-1]
	bEff[drop] = 0

	res := FinalizeEffective(p, c, bEff)
	for j := 0; j < p.Valid; j++ {
		r := p.Order[j]
		if r == drop {
			if !math.IsNaN(res.RawP[r]) || !math.IsNaN(res.AdjP[r]) {
				t.Fatalf("bEff=0 row got p-values %v/%v, want NaN", res.RawP[r], res.AdjP[r])
			}
			continue
		}
		want := float64(j+1) / float64(100*(j+1))
		if res.RawP[r] != want {
			t.Fatalf("row %d: RawP = %v, want count/bEff = %v", r, res.RawP[r], want)
		}
	}
	prev := 0.0
	for j := 0; j < p.Valid; j++ {
		r := p.Order[j]
		if math.IsNaN(res.AdjP[r]) {
			continue
		}
		if res.AdjP[r] < prev {
			t.Fatalf("adjusted p-values not monotone: %v after %v", res.AdjP[r], prev)
		}
		prev = res.AdjP[r]
	}
}
