package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// The two served models. Names double as registry model names and as the
// <model> part of per-layer metric names.
const (
	demoModel = "demo" // registry.DemoModel: 16×8×4, f1∘g2 PAF
	wideModel = "wide" // 64×32×10 with the paper's degree-14 f1²∘g1² PAF
)

// buildModel returns the named model with every weight drawn from seed,
// sized for ring degree 2^logN.
func buildModel(name string, seed int64, logN int) (*registry.Model, error) {
	switch name {
	case demoModel:
		m, err := registry.DemoModel(seed, logN)
		if err != nil {
			return nil, err
		}
		m.Name = demoModel
		return m, nil
	case wideModel:
		rng := rand.New(rand.NewSource(seed))
		linear := func(in, out int, sigma float64) *henn.Linear {
			l := &henn.Linear{In: in, Out: out, B: make([]float64, out), W: make([][]float64, out)}
			for i := range l.W {
				l.W[i] = make([]float64, in)
				for j := range l.W[i] {
					l.W[i][j] = rng.NormFloat64() * sigma
				}
				l.B[i] = rng.NormFloat64() * 0.1
			}
			return l
		}
		// Scale 8 keeps the activation's inputs well inside the PAF's
		// [-1, 1] domain for 64 inputs in [-1, 1].
		mlp := &henn.MLP{Layers: []any{
			linear(64, 32, 0.2),
			&henn.Activation{PAF: paf.MustNew(paf.FormF1F1G1G1), Scale: 8},
			linear(32, 10, 0.3),
		}}
		lit, err := registry.ParamsForMLP(mlp, logN)
		if err != nil {
			return nil, err
		}
		return &registry.Model{Name: wideModel, MLP: mlp, Params: lit, InputDim: 64, OutputDim: 10}, nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// replayModels lists the models a traced run replays, on every workload,
// at the workload's ring degree. A model's position is its index in
// modelSeed.
var replayModels = []string{demoModel, wideModel}

// layerStages lists, per model, the stages reported as per-layer metrics:
// those it runs at the ring degree of every workload. demo takes the naive
// path at logN 11 and BSGS at logN 10, so its hoisted stages run on some
// workloads only and appear in the run report alone.
var layerStages = map[string][]string{
	demoModel: {stRotate, stKeySwitch, stMulPlain, stRescale},
	wideModel: stages,
}

// layerName is the per-layer metric component for layer i ("linear0",
// "act1", ...).
func layerName(mlp *henn.MLP, i int) string {
	if _, ok := mlp.Layers[i].(*henn.Linear); ok {
		return fmt.Sprintf("linear%d", i)
	}
	return fmt.Sprintf("act%d", i)
}

// Stage names, as the henn trace (calls henn makes into ckks) and the ckks
// stage observer (key switches and rescales wherever they happen) report
// them.
const (
	stRotate        = "rotate"
	stRotateHoisted = "rotate_hoisted"
	stDecompose     = "decompose_hoisted"
	stKeySwitch     = "key_switch"
	stMulPlain      = "mul_plain"
	stRescale       = "rescale"
)

// stages lists the per-layer stages in metric order.
var stages = []string{stDecompose, stRotateHoisted, stRotate, stKeySwitch, stMulPlain, stRescale}

// opCounts is the number of calls per stage one layer makes.
type opCounts map[string]int

// plan is the first-principles operation count of one model: which linear
// path the serving stack takes and what each layer should do on it,
// derived from the layer shapes and the PAF stage degrees alone.
type plan struct {
	bsgs   bool
	layers []opCounts
}

// shapeDiagonals lists the generalized diagonals d a dense out×in matrix
// occupies in a slots-wide vector: u_d[i] = W[i][(i+d) mod slots] is
// nonzero for d < in, and for d = slots−k with 1 ≤ k < out (row k wraps
// onto column 0).
func shapeDiagonals(in, out, slots int) []int {
	var ds []int
	for d := 0; d < in; d++ {
		ds = append(ds, d)
	}
	for k := out - 1; k >= 1; k-- {
		if d := slots - k; d >= in {
			ds = append(ds, d)
		}
	}
	return ds
}

// babyGiant splits diagonals into baby-step offsets d mod n1 and giant
// blocks d / n1 for the baby/giant split n1 = ⌈√slots⌉.
func babyGiant(diags []int, slots int) (n1 int, babies, giants map[int]bool) {
	n1 = int(math.Ceil(math.Sqrt(float64(slots))))
	babies, giants = map[int]bool{}, map[int]bool{}
	for _, d := range diags {
		babies[d%n1] = true
		giants[d/n1] = true
	}
	return n1, babies, giants
}

// pafOps counts one PAF ReLU evaluation: for each odd stage of degree n,
// ⌈log2((n+1)/2)⌉ ladder squarings, then per term x^(2k+1) one constant
// multiply and popcount(k) ladder products; then the final x·p(x) product
// and x/2 constant. Every ciphertext product relinearizes (one key switch)
// and every product, constant one included, rescales once. The activation's
// 1/Scale input normalization adds one more rescale.
func pafOps(c *paf.Composite) opCounts {
	mults, rescales := 1, 1+2
	for _, st := range c.Stages {
		m := (st.Degree() - 1) / 2
		ladder := bits.Len(uint(m))
		mults += ladder
		rescales += ladder
		for k := 0; k <= m; k++ {
			mults += bits.OnesCount(uint(k))
			rescales += 1 + bits.OnesCount(uint(k))
		}
	}
	return opCounts{stKeySwitch: mults, stRescale: rescales}
}

// expectedPlan derives the plan for mlp at the slot count. The path choice
// mirrors the serving rule: BSGS when its rotation-key set is smaller.
func expectedPlan(mlp *henn.MLP, slots int) plan {
	naiveKeys, bsgsKeys := map[int]bool{}, map[int]bool{}
	var p plan
	for _, l := range mlp.Layers {
		lin, ok := l.(*henn.Linear)
		if !ok {
			continue
		}
		diags := shapeDiagonals(lin.In, lin.Out, slots)
		n1, babies, giants := babyGiant(diags, slots)
		for _, d := range diags {
			if d != 0 {
				naiveKeys[d] = true
			}
		}
		for b := range babies {
			if b != 0 {
				bsgsKeys[b] = true
			}
		}
		for g := range giants {
			if g != 0 {
				bsgsKeys[g*n1] = true
			}
		}
	}
	p.bsgs = len(bsgsKeys) < len(naiveKeys)
	for _, l := range mlp.Layers {
		switch v := l.(type) {
		case *henn.Linear:
			diags := shapeDiagonals(v.In, v.Out, slots)
			if !p.bsgs {
				// d = 0 is a copy: henn still calls Rotate, no key switch.
				p.layers = append(p.layers, opCounts{
					stRotate: len(diags), stKeySwitch: len(diags) - 1,
					stMulPlain: len(diags), stRescale: 1,
				})
				continue
			}
			_, babies, giants := babyGiant(diags, slots)
			p.layers = append(p.layers, opCounts{
				stDecompose: 1, stRotateHoisted: len(babies) - 1,
				stRotate: len(giants), stKeySwitch: len(giants) - 1,
				stMulPlain: len(diags), stRescale: 1,
			})
		case *henn.Activation:
			p.layers = append(p.layers, pafOps(v.PAF))
		}
	}
	return p
}

// unitCounts sums the henn-level stages of a plan over all layers: what one
// server-side inference unit's trace should report.
func (p plan) unitCounts() opCounts {
	out := opCounts{}
	for _, l := range p.layers {
		for _, st := range []string{stDecompose, stRotateHoisted, stRotate, stMulPlain} {
			out[st] += l[st]
		}
	}
	return out
}
