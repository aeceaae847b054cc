package sprint_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"sprint"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	data, err := sprint.GenerateDataset(sprint.DatasetOptions{
		Genes: 200, Samples: 20, Classes: 2,
		DiffFraction: 0.05, EffectSize: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := sprint.DefaultOptions()
	opt.B = 1000
	opt.Seed = 5

	serial, err := sprint.MaxT(data.X, data.Labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sprint.PMaxT(data.X, data.Labels, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.RawP {
		if serial.RawP[i] != parallel.RawP[i] || serial.AdjP[i] != parallel.AdjP[i] {
			t.Fatalf("row %d: serial and parallel p-values differ", i)
		}
	}
	// The ten spiked genes carry ".DE" names and must dominate the order.
	for i := 0; i < 10; i++ {
		r := parallel.Order[i]
		if !data.Differential[r] {
			t.Errorf("order[%d] = row %d, which is not differential", i, r)
		}
	}
}

func TestPublicAPIDatasetRoundTrip(t *testing.T) {
	data, err := sprint.GenerateDataset(sprint.DatasetOptions{Genes: 20, Samples: 8, Classes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sprint.ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 20 || back.Cols() != 8 {
		t.Fatalf("round trip dims %dx%d", back.Rows(), back.Cols())
	}
}

func TestPaperDatasetDimensions(t *testing.T) {
	opt := sprint.PaperDataset()
	if opt.Genes != 6102 || opt.Samples != 76 {
		t.Errorf("paper dataset %dx%d, want 6102x76", opt.Genes, opt.Samples)
	}
}

func TestDefaultNAExported(t *testing.T) {
	if sprint.DefaultNA != -93074815.62 {
		t.Errorf("DefaultNA = %v", sprint.DefaultNA)
	}
}

func ExampleMaxT() {
	// Two genes over six samples, three per class; the first gene is
	// strongly differential.
	x := [][]float64{
		{9.1, 8.7, 9.3, 1.2, 1.0, 1.4},
		{5.1, 4.9, 5.0, 5.2, 4.8, 5.1},
	}
	labels := []int{0, 0, 0, 1, 1, 1}
	opt := sprint.DefaultOptions()
	opt.B = 0 // complete enumeration: C(6,3) = 20 permutations
	res, err := sprint.MaxT(x, labels, opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("permutations: %d (complete: %v)\n", res.B, res.Complete)
	fmt.Printf("most significant row: %d\n", res.Order[0])
	fmt.Printf("raw p of row 0: %.2f\n", res.RawP[0])
	// The raw p of 0.10 is exact: of the 20 distinct labellings, only the
	// observed one and its mirror reach the observed |t|.

	// Output:
	// permutations: 20 (complete: true)
	// most significant row: 0
	// raw p of row 0: 0.10
}

func TestProfileExposed(t *testing.T) {
	x := [][]float64{
		{9.1, 8.7, 9.3, 1.2, 1.0, 1.4},
		{5.1, 4.9, 5.0, 5.2, 4.8, 5.1},
	}
	res, err := sprint.PMaxT(x, []int{0, 0, 0, 1, 1, 1}, 2, sprint.Options{B: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Total() <= 0 {
		t.Error("profile not populated")
	}
	if res.NProcs != 2 {
		t.Errorf("NProcs = %d", res.NProcs)
	}
	if math.IsNaN(res.Stat[0]) {
		t.Error("statistic missing")
	}
}
