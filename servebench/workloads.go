package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// Workload parameters. The open-loop rate and the latency limits are fixed
// here and recorded in BENCHMARK.json's description of each workload.
const (
	closedLogN = 11 // demo stays on the naive diagonal path only from logN 11
	openLogN   = 10
	churnLogN  = 10

	poolSize = 24 // pre-encrypted inputs per session

	// mixed-open replays one fixed Poisson arrival trace at openRate; the
	// run seed sets weights, keys and inputs. A trace drawn per seed puts
	// its bursts in different places, and with ~100 arrivals the p90 then
	// moves by more than any regression bound between seeds. The rate sits
	// near a third of the mix's capacity on 2 cores: at 4/s (about 2/3)
	// and 3/s (about 1/2) queueing amplified a shared host's CPU steal into
	// a 13-30% spread of the open-loop p50 and p90 between runs; at 2/s
	// the spread stays under 5%.
	openRate      = 2.0 // arrivals per second
	openTraceSeed = 1   // seed of the arrival trace

	// slo_ratio counts the operations that finish within these limits.
	inferLimit    = 1500 * time.Millisecond // an inference, from its due time
	registerLimit = 2000 * time.Millisecond // a registration, client-observed

	// register-churn's precision_bits covers the verifying inferences of
	// its first churnVerified sessions, so it repeats exactly for a seed
	// however many sessions the window completes.
	churnVerified = 10

	replayPasses = 3 // per-layer replay passes per model
	splitRegs    = 3 // per-step registration breakdowns in a traced run
)

// openMix sends two of every three mixed-open arrivals to demo and one to
// wide. With an even split the two models' latencies form two separate
// modes and the overall median falls in the gap between them, where it
// jumps between the slowest demo and the fastest wide request from run to
// run; at 2:1 it lies inside demo's mode.
var openMix = []int{0, 0, 1}

var workloads = map[string]func(ctx context.Context, b *bench) error{
	"infer-closed":   inferClosed,
	"mixed-open":     mixedOpen,
	"register-churn": registerChurn,
}

// Seeds derived from the run seed, one stream per use. A model's index is
// its position in replayModels, so a model has the same weights on every
// workload that serves it.
func modelSeed(seed int64, i int) int64   { return seed*131 + int64(i) }
func sessionSeed(seed int64, i int) int64 { return seed*7919 + 17 + int64(i) }
func inputSeed(seed int64, i int) int64   { return seed*104729 + 29 + int64(i) }

// setUp builds the whole set-up setupReps times — server, model deploys,
// one registered session per model and one warm-up inference each — and
// keeps the last. setup_s, register_mb and session_mb are medians over the
// repetitions.
func (b *bench) setUp(ctx context.Context, names []string, logN int) (*stack, []*session, error) {
	var times, deploy, wire, heap []float64
	for rep := 0; ; rep++ {
		start := time.Now()
		st, sessions, err := b.setUpOnce(ctx, names, logN)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		total := 0.0
		for _, d := range st.deployS {
			total += d
		}
		deploy = append(deploy, total)
		wire = append(wire, st.registerMB)
		heap = append(heap, st.sessionMB)
		if rep == setupReps-1 {
			b.endToEnd("setup_s", median(times), "s")
			b.endToEnd("register_mb", median(wire), "MB")
			b.endToEnd("session_mb", median(heap), "MB")
			b.layer("registry.deploy_s", median(deploy), "s")
			b.report["setup_s_reps"] = times
			b.report["session_mb_reps"] = heap
			return st, sessions, nil
		}
		for _, s := range sessions {
			b.phase("setup").record(s.sess.Close(ctx))
		}
		st.close()
	}
}

// setUpOnce builds the server, registers one session per model — noting
// the bytes each registration sends and the live heap each one pins — and
// warms every session with one checked inference.
func (b *bench) setUpOnce(ctx context.Context, names []string, logN int) (*stack, []*session, error) {
	var models []*registry.Model
	for i, n := range names {
		m, err := buildModel(n, modelSeed(b.seed, i), logN)
		if err != nil {
			return nil, nil, err
		}
		models = append(models, m)
	}
	st, err := newStack(models, b.conns)
	if err != nil {
		return nil, nil, err
	}
	heap0 := liveHeap()
	var sessions []*session
	for i, m := range models {
		s, _, err := st.register(ctx, m, sessionSeed(b.seed, i))
		b.phase("setup").record(err)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		sessions = append(sessions, s)
	}
	heap1 := liveHeap()
	n := float64(len(sessions))
	st.registerMB = float64(st.counter.bytes.Load()) / float64(st.counter.posts.Load()) / 1e6
	st.sessionMB = (float64(heap1) - float64(heap0)) / n / 1e6
	for i, s := range sessions {
		_, err := s.warm(ctx, inputs(inputSeed(b.seed, -1-i), 1, s.model.InputDim)[0])
		b.phase("setup").record(err)
		if err != nil {
			st.close()
			return nil, nil, err
		}
	}
	return st, sessions, nil
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pools dropped
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// prepare draws and encrypts every session's input pool.
func (b *bench) prepare(sessions []*session) error {
	var enc []float64
	for i, s := range sessions {
		if err := s.prepare(inputSeed(b.seed, i), poolSize); err != nil {
			return err
		}
		enc = append(enc, s.encMs...)
	}
	b.layer("client.encrypt_ms", median(enc), "ms")
	return nil
}

// traceEvery is how often the window traces a request on the client side:
// every other request in a traced run, so the untraced half measures the
// tracing overhead; never in an untraced run.
func (b *bench) traceEvery() int {
	if b.traced {
		return 2
	}
	return 0
}

// verify decrypts every response and compares it with InferPlain. A
// transport error or a response outside tolerance fails the request, and a
// wrong response also makes the run incorrect. Each verified request keeps
// its absolute error.
func (b *bench) verify(reqs []*request, sessions []*session) {
	var dec []float64
	for _, r := range reqs {
		if r.Err == nil {
			s := sessions[r.Model]
			start := time.Now()
			r.absErr = s.check(r.out, r.Input)
			dec = append(dec, ms(time.Since(start)))
			if r.absErr > tolerance {
				r.Err = fmt.Errorf("%s input %d: error %g exceeds %g", s.model.Name, r.Input, r.absErr, tolerance)
				b.fail("%v", r.Err)
			}
		}
		b.phase("window").record(r.Err)
		if r.Err != nil && b.phase("window").Failed <= 3 {
			logf("request failed: %v", r.Err)
		}
	}
	b.layer("client.decrypt_ms", median(dec), "ms")
}

// precisionBits is the precision in bits of the worst verified response.
func precisionBits(reqs []*request) float64 {
	worst := 0.0
	for _, r := range reqs {
		if r.Err == nil {
			worst = math.Max(worst, r.absErr)
		}
	}
	return bitsOf(worst)
}

// reportOps reports the end-to-end metrics of the window's operations:
// latency percentiles over the successful ones (lat, in ms), their rate
// from start until the window's last operation ended, and the share of
// the sent operations that succeeded within limit.
func (b *bench) reportOps(lat []float64, sent int, start, last time.Time, limit time.Duration) {
	within := 0
	for _, l := range lat {
		if l <= ms(limit) {
			within++
		}
	}
	b.endToEnd("p50_ms", b.pct("p50_ms", lat, 0.5), "ms")
	b.endToEnd("p90_ms", b.pct("p90_ms", lat, 0.9), "ms")
	b.endToEnd("ops_per_s", float64(len(lat))/last.Sub(start).Seconds(), "1/s")
	b.endToEnd("slo_ratio", float64(within)/float64(max(sent, 1)), "ratio")
	b.samples["ops_per_s"] = len(lat)
	b.samples["slo_ratio"] = sent
}

// recordRequests writes every request of the window into the report:
// model, input, due time after start, latency, wait for a connection, and
// error.
func (b *bench) recordRequests(reqs []*request, start time.Time) {
	type row struct {
		Model      int     `json:"model"`
		Input      int     `json:"input"`
		DueMs      float64 `json:"due_ms"`
		LatencyMs  float64 `json:"latency_ms"`
		ConnWaitMs float64 `json:"conn_wait_ms"`
		Err        string  `json:"err,omitempty"`
	}
	rows := make([]row, len(reqs))
	for i, r := range reqs {
		rows[i] = row{r.Model, r.Input, ms(r.due.Sub(start)), ms(r.latency()), ms(r.connWait()), ""}
		if r.Err != nil {
			rows[i].Err = r.Err.Error()
		}
	}
	b.report["requests"] = rows
}

func okLatencies(reqs []*request, model int) []float64 {
	var out []float64
	for _, r := range reqs {
		if r.Err == nil && (model < 0 || r.Model == model) {
			out = append(out, ms(r.latency()))
		}
	}
	return out
}

func lastEnd(reqs []*request, start time.Time) time.Time {
	last := start
	for _, r := range reqs {
		if r.end.After(last) {
			last = r.end
		}
	}
	return last
}

// inferClosed: demo at logN 11, one session registered during set-up,
// nproc closed-loop clients each sending the next inference when the last
// returns.
func inferClosed(ctx context.Context, b *bench) error {
	st, sessions, err := b.setUp(ctx, []string{demoModel}, closedLogN)
	if err != nil {
		return err
	}
	defer st.close()
	if err := b.prepare(sessions); err != nil {
		return err
	}
	s := sessions[0]
	start := time.Now()
	reqs := runClosed(b.conns, poolSize, start, b.window, b.traceEvery(), func(r *request) error {
		var err error
		r.out, r.traceID, err = s.infer(ctx, r, &b.log)
		return err
	})
	b.verify(reqs, sessions)
	b.recordRequests(reqs, start)
	b.reportOps(okLatencies(reqs, -1), len(reqs), start, lastEnd(reqs, start), inferLimit)
	b.endToEnd("precision_bits", precisionBits(reqs), "bits")
	b.checkCoverage(reqs, sessions)
	if !b.traced {
		return nil
	}
	if err := b.inferenceLayers(ctx, st, sessions, reqs, start); err != nil {
		return err
	}
	b.confirms["demo unit: rotate has the most self time"] = b.largestStage[demoModel] == stRotate
	return nil
}

// mixedOpen: demo and wide at logN 10, one session each, a fixed Poisson
// arrival trace split 2:1 across the two, over at most nproc connections.
func mixedOpen(ctx context.Context, b *bench) error {
	names := []string{demoModel, wideModel}
	st, sessions, err := b.setUp(ctx, names, openLogN)
	if err != nil {
		return err
	}
	defer st.close()
	if err := b.prepare(sessions); err != nil {
		return err
	}
	sched := poissonSchedule(openTraceSeed, openRate, b.window, openMix, poolSize)
	start := time.Now()
	reqs := runOpen(sched, start, b.conns, b.traceEvery(), func(r *request) error {
		var err error
		r.out, r.traceID, err = sessions[r.Model].infer(ctx, r, &b.log)
		return err
	})
	b.verify(reqs, sessions)
	b.recordRequests(reqs, start)
	b.reportOps(okLatencies(reqs, -1), len(reqs), start, lastEnd(reqs, start), inferLimit)
	b.endToEnd("precision_bits", precisionBits(reqs), "bits")
	for i, n := range names {
		b.samples["ops_"+n] = len(okLatencies(reqs, i))
	}
	b.checkCoverage(reqs, sessions)
	if !b.traced {
		return nil
	}
	var late []float64
	for _, r := range reqs {
		late = append(late, ms(r.late()))
	}
	b.report["load_late_p90_ms"] = b.pct("load_late_p90_ms", late, 0.9)
	if err := b.inferenceLayers(ctx, st, sessions, reqs, start); err != nil {
		return err
	}
	b.confirms["wide unit: rotate_hoisted has the most self time"] = b.largestStage[wideModel] == stRotateHoisted
	b.confirms["queue or connection wait is nonzero"] =
		b.layers["server.queue_wait_p90_ms"].Value > 0 || b.layers["load.conn_wait_p90_ms"].Value > 0
	return nil
}

// checkCoverage notes in the report whether every pool input was answered
// at least once: precision_bits repeats exactly for a seed only then.
func (b *bench) checkCoverage(reqs []*request, sessions []*session) {
	seen := map[[2]int]bool{}
	for _, r := range reqs {
		if r.Err == nil {
			seen[[2]int{r.Model, r.Input}] = true
		}
	}
	b.report["pool_coverage"] = fmt.Sprintf("%d of %d pool inputs answered", len(seen), len(sessions)*poolSize)
}

// registerChurn: demo at logN 10, one client registering sequentially —
// key generation, POST /v1/sessions, then, outside the registration
// timing, one verifying inference on an input encrypted under the new
// session's keys, and Close.
func registerChurn(ctx context.Context, b *bench) error {
	st, sessions, err := b.setUp(ctx, []string{demoModel}, churnLogN)
	if err != nil {
		return err
	}
	defer st.close()
	// The set-up session served as the warm-up registration.
	if err := sessions[0].sess.Close(ctx); err != nil {
		return err
	}
	m := sessions[0].model

	// In a traced run, count the rotations that run while a registration
	// is being timed; there should be none.
	var registering atomic.Bool
	var regRotations atomic.Int64
	if b.traced {
		ckks.SetStageObserver(func(stage string, _ time.Duration) {
			if registering.Load() && (stage == stRotate || stage == stRotateHoisted) {
				regRotations.Add(1)
			}
		})
		defer ckks.SetStageObserver(nil)
	}

	var lat, tracedS, untracedS, enc []float64
	var reqs []*request
	var churned []*session
	sent := 0
	start := time.Now()
	deadline := start.Add(b.window)
	for i := 0; time.Now().Before(deadline); i++ {
		sent++
		traceIt := b.traced && i%2 == 0
		registering.Store(true)
		var s *session
		var d time.Duration
		if traceIt {
			traced(ctx, &b.log, "client.register", func(ctx context.Context) {
				s, d, err = st.register(ctx, m, sessionSeed(b.seed, 100+i))
			})
		} else {
			s, d, err = st.register(ctx, m, sessionSeed(b.seed, 100+i))
		}
		registering.Store(false)
		if err != nil {
			b.phase("window").record(err)
			logf("registration failed: %v", err)
			continue
		}
		lat = append(lat, ms(d))
		if traceIt {
			tracedS = append(tracedS, d.Seconds())
		} else {
			untracedS = append(untracedS, d.Seconds())
		}
		if err := s.prepare(inputSeed(b.seed, 100+i), 1); err != nil {
			return err
		}
		enc = append(enc, s.encMs...)
		now := time.Now()
		r := &request{Model: len(churned), Traced: traceIt, due: now, launched: now, acquired: now}
		r.out, r.traceID, r.Err = s.infer(ctx, r, &b.log)
		r.end = time.Now()
		reqs, churned = append(reqs, r), append(churned, s)
		b.phase("close").record(s.sess.Close(ctx))
	}
	last := time.Now()
	if len(lat) == 0 {
		return fmt.Errorf("no registration completed in the window")
	}
	b.verify(reqs, churned)
	b.recordRequests(reqs, start)
	b.reportOps(lat, sent, start, last, registerLimit)
	b.endToEnd("precision_bits", precisionBits(reqs[:min(len(reqs), churnVerified)]), "bits")
	if len(reqs) < churnVerified {
		b.short = append(b.short, fmt.Sprintf("precision_bits: %d verified sessions, fewer than %d", len(reqs), churnVerified))
	}
	if !b.traced {
		return nil
	}
	b.layer("client.encrypt_ms", median(enc), "ms")
	if err := b.inferenceLayers(ctx, st, churned, reqs, start); err != nil {
		return err
	}
	// Registrations are the operation here, so tracing overhead is timed
	// on them rather than on the verifying inferences.
	b.layer("trace.overhead_ms", 1000*(median(tracedS)-median(untracedS)), "ms")
	// The window's timed registrations join the step-by-step ones.
	n := regRotations.Load()
	if n != 0 {
		b.fail("%d rotations ran inside timed registrations", n)
	}
	rot := b.layers["ckks.register.rotate.count"].Value + float64(n)
	b.layer("ckks.register.rotate.count", rot, "count")
	b.confirms["no rotation inside timed registrations"] = rot == 0
	b.confirms["register_post_s + key_encode_s exceed half of the registration p50"] =
		b.layers["server.register_post_s"].Value+b.layers["client.key_encode_s"].Value > b.e2e["p50_ms"].Value/2000
	return nil
}
