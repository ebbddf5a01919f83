package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// inferenceLayers derives the per-layer metrics every workload reports
// after its window: the server's own traces of the window's inferences,
// the client's connection wait and tracing overhead, a replay of both
// models layer by layer at the workload's ring degree, step-by-step
// registrations, and the ring transforms.
func (b *bench) inferenceLayers(ctx context.Context, st *stack, sessions []*session, reqs []*request, start time.Time) error {
	unitMedian, err := b.serverLayers(ctx, st, sessions, reqs, start)
	if err != nil {
		return err
	}
	var tracedMs, untracedMs, wait []float64
	for _, r := range reqs {
		if r.Err != nil {
			continue
		}
		if r.Traced {
			tracedMs = append(tracedMs, ms(r.latency()))
			wait = append(wait, ms(r.connWait()+r.transportWait))
		} else {
			untracedMs = append(untracedMs, ms(r.latency()))
		}
	}
	b.layer("trace.overhead_ms", median(tracedMs)-median(untracedMs), "ms")
	b.layer("load.conn_wait_p90_ms", b.pct("load.conn_wait_p90_ms", wait, 0.9), "ms")

	// Coverage compares the replay with the server's units of the models
	// the workload serves.
	logN := sessions[0].model.Params.LogN
	replayed, served := 0.0, 0.0
	for i, name := range replayModels {
		m := modelServed(sessions, name)
		if m == nil {
			if m, err = buildModel(name, modelSeed(b.seed, i), logN); err != nil {
				return err
			}
		}
		sum, err := b.replay(m, i)
		if err != nil {
			return err
		}
		if u, ok := unitMedian[name]; ok {
			replayed += sum
			served += u
		}
	}
	b.layer("henn.coverage", replayed/served, "ratio")
	if err := b.splitRegistrations(ctx, st, sessions[0].model); err != nil {
		return err
	}
	// The ring transforms run at the largest chain the workload serves.
	largest := sessions[0].model
	for _, s := range sessions {
		if len(s.model.Params.LogQ) > len(largest.Params.LogQ) {
			largest = s.model
		}
	}
	b.ringLayers(largest)
	return nil
}

// modelServed returns the model of that name one of the sessions serves,
// or nil.
func modelServed(sessions []*session, name string) *registry.Model {
	for _, s := range sessions {
		if s.model.Name == name {
			return s.model
		}
	}
	return nil
}

// serverLayers reads the spans the server recorded for the window's
// requests (queue wait, dispatch, unit, and the unit's henn stage totals),
// checks each unit's stage counts against the model's plan, and returns
// each model's median unit time in milliseconds.
func (b *bench) serverLayers(ctx context.Context, st *stack, sessions []*session, reqs []*request, start time.Time) (map[string]float64, error) {
	snaps, err := st.cl.Traces(ctx)
	if err != nil {
		return nil, fmt.Errorf("fetching server traces: %w", err)
	}
	byID := map[string]telemetry.TraceSnapshot{}
	for _, s := range snaps {
		byID[s.ID] = s
	}
	var overhead, queue, dispatch []float64
	units := map[string][]float64{}
	stageUs := map[string]map[string]float64{}
	var busy time.Duration
	end, matched := start, 0
	for _, r := range reqs {
		snap, ok := byID[r.traceID]
		if r.Err != nil || !ok {
			continue
		}
		matched++
		if r.end.After(end) {
			end = r.end
		}
		s := sessions[r.Model]
		name := s.model.Name
		spans := map[string]time.Duration{}
		for _, sp := range snap.Spans {
			spans[sp.Name] = time.Duration(sp.DurUs) * time.Microsecond
		}
		unit := spans["unit"]
		busy += unit
		units[name] = append(units[name], ms(unit))
		overhead = append(overhead, ms(r.end.Sub(r.acquired)-unit))
		queue = append(queue, ms(spans["queue_wait"]))
		dispatch = append(dispatch, ms(spans["dispatch"]))
		got := opCounts{}
		if stageUs[name] == nil {
			stageUs[name] = map[string]float64{}
		}
		for _, stg := range snap.Stages {
			got[stg.Name] = stg.Count
			stageUs[name][stg.Name] += float64(stg.TotalUs)
		}
		want := expectedPlan(s.model.MLP, 1<<(s.model.Params.LogN-1)).unitCounts()
		for stg, n := range want {
			if got[stg] != n {
				b.fail("%s unit made %d %s calls, first principles give %d", name, got[stg], stg, n)
			}
		}
	}
	b.samples["server_traces"] = matched
	if matched < len(reqs)/2 {
		return nil, fmt.Errorf("only %d of %d requests have a server trace", matched, len(reqs))
	}
	b.layer("server.infer_overhead_ms", b.pct("server.infer_overhead_ms", overhead, 0.5), "ms")
	b.layer("server.queue_wait_p50_ms", b.pct("server.queue_wait_p50_ms", queue, 0.5), "ms")
	b.layer("server.queue_wait_p90_ms", b.pct("server.queue_wait_p90_ms", queue, 0.9), "ms")
	b.layer("server.busy_ratio", busy.Seconds()/(end.Sub(start).Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	b.layer("parallel.dispatch_p90_ms", b.pct("parallel.dispatch_p90_ms", dispatch, 0.9), "ms")

	// Per model: mean time per unit in each henn stage, the unit's self
	// time outside them, and the stage with the most self time. The henn
	// stages do not nest, so each one's total is its self time.
	med := map[string]float64{}
	breakdown := map[string]any{}
	for name, us := range units {
		med[name] = median(us)
		n := float64(len(us))
		perUnit := map[string]float64{}
		largest, inside := "", 0.0
		for stg, total := range stageUs[name] {
			perUnit[stg] = total / n / 1000
			inside += perUnit[stg]
			if largest == "" || perUnit[stg] > perUnit[largest] {
				largest = stg
			}
		}
		unitMean := 0.0
		for _, u := range us {
			unitMean += u / n
		}
		b.largestStage[name] = largest
		breakdown[name] = map[string]any{
			"unit_mean_ms": unitMean, "stage_ms": perUnit,
			"unit_self_ms": unitMean - inside, "largest_stage": largest,
		}
	}
	b.report["unit_breakdown"] = breakdown
	return med, nil
}

// stageRecorder collects the CKKS stage observer's reports as spans.
type stageRecorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *stageRecorder) observe(stage string, d time.Duration) {
	now := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: stage, Parent: -1, Start: now.Add(-d), End: now})
	r.mu.Unlock()
}

func (r *stageRecorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// replay runs replayPasses inputs of model m (the i-th of replayModels)
// one layer at a time through an in-process henn.Context with the
// parameters and rotation set the server prescribes for it, on the path
// PreferBSGS picks. The henn trace gives each layer's rotations and
// plaintext products, the CKKS stage observer its key switches and
// rescales; both are checked against the first-principles plan. It
// returns the sum of the layers' median times in milliseconds.
func (b *bench) replay(m *registry.Model, i int) (float64, error) {
	name := m.Name
	// The keys and inputs are local: a session of this model with its
	// own key seed and input stream.
	s := &session{model: m, seed: sessionSeed(b.seed, 30000+i)}
	if err := s.prepare(inputSeed(b.seed, 30000+i), replayPasses); err != nil {
		return 0, err
	}
	params := s.keys.params
	slots := params.Slots()
	want := expectedPlan(m.MLP, slots)
	if got := m.MLP.PreferBSGS(slots); got != want.bsgs {
		b.fail("%s: serving path BSGS=%v, first principles give %v", name, got, want.bsgs)
	}

	// Key generation repeats Client.NewSession's sequence for the seed.
	kg := ckks.NewKeyGenerator(params, s.seed)
	sk := kg.GenSecretKey()
	_ = kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rks := kg.GenRotationKeys(sk, m.MLP.ServingRotations(slots), false)
	eval := ckks.NewEvaluator(params, rlk).WithRotationKeys(rks)
	hctx := henn.NewContext(params, ckks.NewEncoder(params), eval)
	// A copy of the model through its wire format, so the replay warms its
	// own plan and plaintext caches.
	wire, err := m.MLP.MarshalBinary()
	if err != nil {
		return 0, err
	}
	mlp := new(henn.MLP)
	if err := mlp.UnmarshalBinary(wire); err != nil {
		return 0, err
	}
	bsgs := mlp.PreferBSGS(slots)
	infer := hctx.Infer
	if bsgs {
		infer = hctx.InferBSGS
	}
	if _, err := infer(mlp, s.cts[0]); err != nil { // warm-up
		return 0, fmt.Errorf("replaying %s: %w", name, err)
	}

	rec := &stageRecorder{}
	ckks.SetStageObserver(rec.observe)
	defer ckks.SetStageObserver(nil)

	nl := len(mlp.Layers)
	layerMs := make([][]float64, nl)
	stageMs := make([]map[string][]float64, nl)
	counts := make([]opCounts, nl)
	var pafMs, inferMs []float64
	for p := 0; p < replayPasses; p++ {
		ct := s.cts[p]
		for i, l := range mlp.Layers {
			tr := telemetry.NewTrace(fmt.Sprintf("replay-%s-%d", name, p))
			lctx := hctx.WithTrace(tr)
			rec.take()
			t0 := time.Now()
			switch v := l.(type) {
			case *henn.Linear:
				if bsgs {
					ct, err = lctx.ApplyLinearBSGS(v, ct)
				} else {
					ct, err = lctx.ApplyLinear(v, ct)
				}
			case *henn.Activation:
				ct, err = lctx.ApplyActivation(v, ct)
			}
			t1 := time.Now()
			if err != nil {
				return 0, fmt.Errorf("replaying %s layer %d: %w", name, i, err)
			}
			layerMs[i] = append(layerMs[i], ms(t1.Sub(t0)))

			got, totals := opCounts{}, map[string]float64{}
			for _, stg := range tr.Snapshot().Stages {
				switch stg.Name {
				case stRotate, stRotateHoisted, stDecompose, stMulPlain:
					got[stg.Name] = stg.Count
					totals[stg.Name] = float64(stg.TotalUs) / 1000
				case "paf_eval":
					pafMs = append(pafMs, float64(stg.TotalUs)/1000)
				}
			}
			obs := rec.take()
			for _, sp := range obs {
				if sp.Name == stKeySwitch || sp.Name == stRescale {
					got[sp.Name]++
					totals[sp.Name] += ms(sp.dur())
				}
			}
			b.logLayer(fmt.Sprintf("replay-%s-%d", name, p), fmt.Sprintf("henn.%s.%s", name, layerName(mlp, i)), t0, t1, obs)
			if p == 0 {
				counts[i] = got
				stageMs[i] = map[string][]float64{}
			} else if fmt.Sprint(got) != fmt.Sprint(counts[i]) {
				b.fail("%s layer %d: stage counts differ between replay passes", name, i)
			}
			for stg, v := range totals {
				stageMs[i][stg] = append(stageMs[i][stg], v)
			}
		}
		if e := s.check(ct, p); e > tolerance {
			b.fail("%s replay of input %d: error %g exceeds %g", name, p, e, tolerance)
		}
		t0 := time.Now()
		if _, err := infer(mlp, s.cts[p]); err != nil {
			return 0, fmt.Errorf("replaying %s: %w", name, err)
		}
		inferMs = append(inferMs, ms(time.Since(t0)))
	}

	// Each layer's stages go to the report; the per-layer metrics sum
	// them over the model's layers.
	sum := 0.0
	detail := map[string]any{}
	got, exp, stMs := opCounts{}, opCounts{}, map[string]float64{}
	for i := range mlp.Layers {
		ln := layerName(mlp, i)
		lm := median(layerMs[i])
		sum += lm
		b.layer(fmt.Sprintf("henn.%s.%s_ms", name, ln), lm, "ms")
		for _, stg := range stages {
			e, g := want.layers[i][stg], counts[i][stg]
			if e == 0 && g == 0 {
				continue
			}
			key := fmt.Sprintf("ckks.%s.%s.%s", name, ln, stg)
			v := median(stageMs[i][stg])
			detail[key] = map[string]any{"count": g, "expected": e, "ms": v}
			got[stg] += g
			exp[stg] += e
			stMs[stg] += v
			if g != e {
				b.fail("%s: %d calls, first principles give %d", key, g, e)
			}
		}
	}
	b.report["replay_"+name] = detail
	for _, stg := range layerStages[name] {
		key := fmt.Sprintf("ckks.%s.%s", name, stg)
		if got[stg] == 0 {
			b.fail("%s: no calls at logN %d", key, params.LogN())
		}
		b.layer(key+".count", float64(got[stg]), "count")
		b.layer(key+".expected", float64(exp[stg]), "count")
		b.layer(key+".ms", stMs[stg], "ms")
	}
	b.layer(fmt.Sprintf("henn.%s.infer_ms", name), median(inferMs), "ms")
	b.layer(fmt.Sprintf("hepoly.%s.paf_eval_ms", name), median(pafMs), "ms")
	return sum, nil
}

// logLayer records a replayed layer and the CKKS stages inside it as spans,
// nested by containment.
func (b *bench) logLayer(trace, name string, t0, t1 time.Time, stages []span) {
	all := append([]span{{Trace: trace, Name: name, Parent: -1, Start: t0, End: t1}}, stages...)
	for i := range all {
		all[i].Trace = trace
	}
	nestByContainment(all)
	base := -1
	for i, s := range all {
		if s.Parent >= 0 {
			s.Parent += base
		}
		idx := b.log.add(s)
		if i == 0 {
			base = idx
		}
	}
}

// ringLayers times the forward and inverse NTT over the full modulus chain
// of the model's parameters.
func (b *bench) ringLayers(m *registry.Model) {
	params, err := ckks.NewParameters(m.Params)
	if err != nil {
		b.fail("ring parameters: %v", err)
		return
	}
	rq := params.RingQ()
	p := ring.NewSampler(rq, b.seed).Uniform(params.MaxLevel())
	var fwd, inv []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		rq.NTT(p)
		t1 := time.Now()
		rq.INTT(p)
		fwd = append(fwd, ms(t1.Sub(t0)))
		inv = append(inv, ms(time.Since(t1)))
	}
	b.layer("ring.ntt_ms", median(fwd), "ms")
	b.layer("ring.intt_ms", median(inv), "ms")
	b.report["ring_chain"] = fmt.Sprintf("N=%d, %d limbs", params.N(), params.MaxLevel()+1)
}

// registerBody mirrors the JSON body of POST /v1/sessions.
type registerBody struct {
	Model        string `json:"model"`
	Params       []byte `json:"params"`
	PublicKey    []byte `json:"publicKey"`
	RelinKey     []byte `json:"relinKey"`
	RotationKeys []byte `json:"rotationKeys"`
}

// splitRegistrations performs registrations step by step, timing each
// step separately: client key generation, key encoding into the JSON
// body, the POST (server decode, validation and session set-up), and the
// rotation-key decode the server runs on the uploaded bytes. It counts the
// rotations that run during the POSTs; there should be none.
func (b *bench) splitRegistrations(ctx context.Context, st *stack, m *registry.Model) error {
	info, err := st.cl.ModelNamed(ctx, m.Name)
	if err != nil {
		return err
	}
	var lit ckks.ParametersLiteral
	if err := lit.UnmarshalBinary(info.Params); err != nil {
		return err
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return err
	}
	var rotations atomic.Int64
	ckks.SetStageObserver(func(stage string, _ time.Duration) {
		if stage == stRotate || stage == stRotateHoisted {
			rotations.Add(1)
		}
	})
	defer ckks.SetStageObserver(nil)
	var keygen, encode, post, decode []float64
	for i := 0; i < splitRegs; i++ {
		t0 := time.Now()
		kg := ckks.NewKeyGenerator(params, sessionSeed(b.seed, 20000+i))
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		rlk := kg.GenRelinearizationKey(sk)
		rks := kg.GenRotationKeys(sk, info.Rotations, false)
		t1 := time.Now()
		body := registerBody{Model: info.Ref(), Params: info.Params}
		if body.PublicKey, err = pk.MarshalBinary(); err != nil {
			return err
		}
		if body.RelinKey, err = rlk.MarshalBinary(); err != nil {
			return err
		}
		if body.RotationKeys, err = rks.MarshalBinary(); err != nil {
			return err
		}
		payload, err := json.Marshal(body)
		if err != nil {
			return err
		}
		t2 := time.Now()
		id, err := b.postRegistration(ctx, st, payload)
		t3 := time.Now()
		b.phase("split").record(err)
		if err != nil {
			return err
		}
		if err := b.deleteSession(ctx, st, id); err != nil {
			return err
		}
		t4 := time.Now()
		if err := new(ckks.RotationKeySet).UnmarshalBinary(body.RotationKeys); err != nil {
			return err
		}
		t5 := time.Now()
		keygen = append(keygen, t1.Sub(t0).Seconds())
		encode = append(encode, t2.Sub(t1).Seconds())
		post = append(post, t3.Sub(t2).Seconds())
		decode = append(decode, t5.Sub(t4).Seconds())
	}
	b.layer("client.keygen_s", median(keygen), "s")
	b.layer("client.key_encode_s", median(encode), "s")
	b.layer("server.register_post_s", median(post), "s")
	b.layer("ckks.rotkeys_decode_s", median(decode), "s")
	b.layer("ckks.register.rotate.count", float64(rotations.Load()), "count")
	if n := rotations.Load(); n != 0 {
		b.fail("%d rotations ran inside registrations", n)
	}
	return nil
}

func (b *bench) postRegistration(ctx context.Context, st *stack, payload []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.base+"/v1/sessions", bytes.NewReader(payload))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return "", fmt.Errorf("registration: %s: %s", resp.Status, msg)
	}
	var reg struct {
		SessionID string `json:"sessionID"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return "", err
	}
	return reg.SessionID, nil
}

func (b *bench) deleteSession(ctx context.Context, st *stack, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, st.base+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := st.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("deleting session: %s", resp.Status)
	}
	return nil
}
