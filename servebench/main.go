// Command servebench is the repository's serving benchmark. One run starts
// an in-process server (server.New behind a loopback http.Server), drives
// it through the public server.Client with one workload for a fixed
// window, checks every decrypted result against MLP.InferPlain, and prints
// as its last line one JSON object with the end-to-end metrics (-trace 0)
// or the per-layer metrics (-trace 1). Every workload reports the same
// metric names. See README.md.
//
// Build and run it from the repository root with run.sh:
//
//	bash servebench/run.sh --workload infer-closed --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its whole set-up; setup_s is
// the median, and the last set-up serves the timed window.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase counts the operations of one phase of a run.
type phase struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (p *phase) record(err error) {
	p.Attempted++
	if err != nil {
		p.Failed++
	} else {
		p.Succeeded++
	}
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	conns    int

	e2e      map[string]metric // reported with -trace 0
	layers   map[string]metric // reported with -trace 1
	problems []string          // failed correctness checks
	short    []string          // percentiles with too few samples beyond
	phases   map[string]*phase
	samples  map[string]int
	report   map[string]any
	log      spanLog

	// largestStage is, per model, the henn stage with the most self time
	// in the server's units (traced runs).
	largestStage map[string]string
	// confirms records whether the traced run shows what the workload is
	// for; these describe the program and do not fail the run.
	confirms map[string]bool
}

func (b *bench) endToEnd(name string, v float64, unit string) { b.e2e[name] = metric{v, unit} }
func (b *bench) layer(name string, v float64, unit string)    { b.layers[name] = metric{v, unit} }

// fail records a failed correctness check; the run then reports
// correct=false.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	logf("FAIL: %s", msg)
}

func (b *bench) phase(name string) *phase {
	if b.phases[name] == nil {
		b.phases[name] = &phase{}
	}
	return b.phases[name]
}

// pct reports a percentile with the sample-count rule: the sample count is
// recorded, and a percentile with fewer than ten samples beyond it is
// flagged in the report.
func (b *bench) pct(name string, xs []float64, p float64) float64 {
	v, ok := percentile(xs, p)
	b.samples[name] = len(xs)
	if !ok {
		b.short = append(b.short, fmt.Sprintf("%s: %d samples, fewer than %d beyond p%g", name, len(xs), minBeyond, p*100))
	}
	return v
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for every model weight and input")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	reports := flag.String("reports", filepath.Join(".bench_build", "servebench", "reports"), "directory for the run report")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: -workload %s -seed N -seconds S -trace 0|1", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		conns:    runtime.NumCPU(),
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
		phases:   map[string]*phase{},
		samples:  map[string]int{},
		report:   map[string]any{},

		largestStage: map[string]string{},
		confirms:     map[string]bool{},
	}
	// A run must end within 180 seconds, even if a request hangs.
	limit := b.window + 140*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	watchdog := time.AfterFunc(limit+5*time.Second, func() {
		logf("run exceeded %s", limit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	start := time.Now()
	if err := run(ctx, b); err != nil {
		logf("%s: %v", b.workload, err)
		os.Exit(1)
	}
	b.report["run_s"] = time.Since(start).Seconds()
	if err := b.writeReport(*reports); err != nil {
		logf("writing report: %v", err)
	}

	res := result{Correct: len(b.problems) == 0, Metrics: b.e2e}
	if b.traced {
		res.Metrics = b.layers
	}
	win := b.phase("window")
	res.Attempted, res.Failed = win.Attempted, win.Failed
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	summary, _ := json.Marshal(map[string]any{
		"host": hostFacts(b.seed), "phases": b.phases, "samples": b.samples,
		"problems": b.problems, "short_percentiles": b.short, "confirms": b.confirms,
	})
	fmt.Println(string(summary))
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostFacts records what the numbers were measured on.
func hostFacts(seed int64) map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		model = cpuModel(string(data))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        model,
		"go":         runtime.Version(),
		"seed":       seed,
	}
}

// writeReport writes the run's full record — host facts, phases, sample
// counts, metrics, and every recorded span with its self time — as JSON.
func (b *bench) writeReport(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := b.log.snapshot()
	self := selfTimes(spans)
	type spanOut struct {
		span
		SelfUs int64 `json:"self_us"`
	}
	out := make([]spanOut, len(spans))
	for i, s := range spans {
		out[i] = spanOut{s, self[i].Microseconds()}
	}
	rec := map[string]any{
		"workload":          b.workload,
		"traced":            b.traced,
		"window_s":          b.window.Seconds(),
		"host":              hostFacts(b.seed),
		"phases":            b.phases,
		"samples":           b.samples,
		"short_percentiles": b.short,
		"end_to_end":        b.e2e,
		"per_layer":         b.layers,
		"problems":          b.problems,
		"confirms":          b.confirms,
		"detail":            b.report,
		"spans":             out,
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", b.workload, b.seed, b.traced)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
