package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"testing"

	"sprint/internal/maxt"
	"sprint/internal/microarray"
)

// The golden digests pin the engine's results across every entry point:
// each analysis below has ONE committed CRC64 over the bit patterns of
// its Stat, RawP, AdjP, Order, B and BEff, and every way of running it —
// serial, collective, supervised at any window, sharded and merged,
// cancelled and resumed — must reproduce that digest.  A refactor of the
// execution path that moves a single bit fails here.
var goldenDigests = map[string]uint64{
	"f/abs/n":                0x279d48e27b76d5b7,
	"f/abs/y":                0x8d69ef10003c1349,
	"f/upper/n":              0x279d48e27b76d5b7,
	"f/upper/y":              0x8d69ef10003c1349,
	"seq/f/abs/y":            0x5baa1659e2afdd89,
	"seq/t/abs/y":            0x78534cfc48e26805,
	"seq/wilcoxon/upper/n":   0x62b4baf87238c5a0,
	"t.equalvar/abs/n":       0x39e2dac8a2b89b8a,
	"t.equalvar/abs/y":       0xde417fc914a4d23b,
	"t.equalvar/upper/n":     0xe1e2d3747523eb98,
	"t.equalvar/upper/y":     0x920a4f05c13417ba,
	"t/abs/n":                0x454f435773f2ae41,
	"t/abs/y":                0x3519bc4e8ade03df,
	"t/complete/door":        0x8b9c7149ca292349,
	"t/complete/lex":         0x8b9c7149ca292349,
	"t/upper/n":              0x69c1dface1d9b69b,
	"t/upper/y":              0xe33d64e7ba1e5399,
	"wilcoxon/abs/n":         0x8cae6448b726b8f1,
	"wilcoxon/abs/y":         0x7299c6290fd7df88,
	"wilcoxon/complete/door": 0x3688488b04762486,
	"wilcoxon/complete/lex":  0x3688488b04762486,
	"wilcoxon/upper/n":       0x4181d3ae93797387,
	"wilcoxon/upper/y":       0x18a752606b0433d9,
}

// resultDigest hashes the result fields the engine guarantees bitwise.
// NaN is canonicalised: rows without a computable statistic are NaN by
// contract, and which NaN payload a platform produces is not.
func resultDigest(r *Result) uint64 {
	var buf []byte
	put := func(u uint64) { buf = binary.LittleEndian.AppendUint64(buf, u) }
	for _, v := range [][]float64{r.Stat, r.RawP, r.AdjP} {
		put(uint64(len(v)))
		for _, f := range v {
			if math.IsNaN(f) {
				put(0x7ff8000000000001)
			} else {
				put(math.Float64bits(f))
			}
		}
	}
	put(uint64(len(r.Order)))
	for _, o := range r.Order {
		put(uint64(o))
	}
	put(uint64(r.B))
	put(uint64(len(r.BEff)))
	for _, b := range r.BEff {
		put(uint64(b))
	}
	return crc64.Checksum(buf, crc64.MakeTable(crc64.ECMA))
}

func goldenData(t *testing.T, genes, samples, classes int, seed uint64) *microarray.Dataset {
	t.Helper()
	d, err := microarray.Generate(microarray.GenOptions{
		Genes: genes, Samples: samples, Classes: classes,
		DiffFraction: 0.1, EffectSize: 2.5, MissingRate: 0.02, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func checkGolden(t *testing.T, name, entry string, r *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s via %s: %v", name, entry, err)
	}
	want, ok := goldenDigests[name]
	if got := resultDigest(r); !ok || got != want {
		t.Errorf("%s via %s: digest %#016x, want %#016x", name, entry, got, want)
	}
}

// TestGoldenExact runs every exact analysis of the grid — four
// statistics, both sides, both samplers, and complete enumeration in lex
// and revolving-door order — through every entry point.
func TestGoldenExact(t *testing.T) {
	two := goldenData(t, 40, 12, 2, 21)
	three := goldenData(t, 40, 12, 3, 22)
	type gcase struct {
		name string
		data *microarray.Dataset
		opt  Options
	}
	var cases []gcase
	for _, test := range []string{"t.equalvar", "t", "f", "wilcoxon"} {
		data := two
		if test == "f" {
			data = three
		}
		for _, side := range []string{"abs", "upper"} {
			for _, fss := range []string{"y", "n"} {
				cases = append(cases, gcase{test + "/" + side + "/" + fss, data,
					Options{Test: test, Side: side, FixedSeedSampling: fss, B: 300, Seed: 7}})
			}
		}
	}
	for _, test := range []string{"t", "wilcoxon"} {
		for _, order := range []string{"lex", "door"} {
			cases = append(cases, gcase{test + "/complete/" + order, two,
				Options{Test: test, B: 0, PermOrder: order}})
		}
	}
	for _, tc := range cases {
		x, lab, opt := tc.data.X, tc.data.Labels, tc.opt
		r, err := MaxT(x, lab, opt)
		checkGolden(t, tc.name, "MaxT", r, err)
		for _, np := range []int{1, 3} {
			r, err = PMaxT(x, lab, np, opt)
			checkGolden(t, tc.name, "PMaxT", r, err)
		}
		for _, every := range []int64{0, 64} {
			r, err = Run(x, lab, opt, RunControl{NProcs: 2, Every: every})
			checkGolden(t, tc.name, "Run", r, err)
		}

		p, err := Prepare(fromRowsT(t, x), lab, opt)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanRun(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		merged := maxt.NewCounts(plan.Rows)
		for _, sp := range PartitionShards(plan.TotalB, 3) {
			sc, err := RunShard(p, opt, sp[0], sp[1], RunControl{NProcs: 1, Every: 64})
			if err != nil {
				t.Fatal(err)
			}
			merged.Merge(sc.Counts)
		}
		r, err = finalizeMerged(p, opt, merged)
		checkGolden(t, tc.name, "RunShard", r, err)
	}
}

// TestGoldenSequential pins the sequential engine, uninterrupted and
// cancelled then resumed on a different rank count.
func TestGoldenSequential(t *testing.T) {
	two := goldenData(t, 120, 24, 2, 23)
	three := goldenData(t, 120, 24, 3, 24)
	const every = 1024
	cases := []struct {
		name string
		data *microarray.Dataset
		opt  Options
	}{
		{"seq/t/abs/y", two, Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 20000, Seed: 3, Mode: ModeSequential}},
		{"seq/wilcoxon/upper/n", two, Options{Test: "wilcoxon", Side: "upper", FixedSeedSampling: "n", B: 20000, Seed: 4, Mode: ModeSequential}},
		{"seq/f/abs/y", three, Options{Test: "f", Side: "abs", FixedSeedSampling: "y", B: 20000, Seed: 5, Mode: ModeSequential}},
	}
	for _, tc := range cases {
		x, lab, opt := tc.data.X, tc.data.Labels, tc.opt
		r, err := Run(x, lab, opt, RunControl{NProcs: 2, Every: every})
		checkGolden(t, tc.name, "Run", r, err)

		ctx, cancel := context.WithCancel(context.Background())
		var last *Checkpoint
		_, err = Run(x, lab, opt, RunControl{
			Ctx: ctx, NProcs: 2, Every: every,
			Save: func(c *Checkpoint) error {
				last = c
				if c.Done >= 2*every {
					cancel()
				}
				return nil
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) || last == nil {
			t.Fatalf("%s: cancelled run returned %v (checkpoint %v)", tc.name, err, last != nil)
		}
		r, err = Run(x, lab, opt, RunControl{NProcs: 3, Every: every, Resume: last})
		checkGolden(t, tc.name, "Run resumed", r, err)
	}
}
