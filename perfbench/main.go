// Command perfbench is the repository benchmark. One invocation runs
// one workload of fixed work in its own process, checks that the
// program's outputs are correct, and prints one JSON result line. From
// the repository root:
//
//	bash perfbench/run.sh --workload tune --seed 1 --seconds 15 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	tune      in-process ROBOTune sessions (tuner compute)
//	serve     robotuned over loopback HTTP driven by the client (service path)
//	campaign  durable schedule.RunCampaign plus a ledger resume (campaign path)
//
// --trace 0 prints the end-to-end metrics, measured with no tracing.
// --trace 1 runs the workload untraced and then traced (recording
// every trial), replays the recorded trials through each layer's
// public functions, and prints the per-layer metrics.
// --seconds sizes the fixed work (it never bounds a loop by time).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/journal"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload: tune | serve | campaign")
		seed    = flag.Uint64("seed", 1, "input seed (same seed, same inputs)")
		seconds = flag.Int("seconds", 10, "nominal run length; sizes the fixed work")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result.
func run(name string, seed uint64, seconds int, traced bool) (*result, error) {
	newWL, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have tune, serve, campaign)", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be >= 1, got %d", seconds)
	}
	e, err := newEnv(seed, seconds)
	if err != nil {
		return nil, err
	}
	stamp, err := json.Marshal(e.stamp())
	if err != nil {
		return nil, err
	}
	fmt.Println(string(stamp))

	var (
		wl     workload
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if wl != nil {
			wl.close()
		}
		t0 := time.Now()
		wl, err = newWL(e.sub(fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer wl.close()

	t0 := time.Now()
	plain, err := wl.run(false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s set-up %.2f s (median of %d), measured work %.1f s\n",
		name, median(setups), setupReps, time.Since(t0).Seconds())
	res := &result{Metrics: map[string]metric{}}
	checks := plain.errs
	res.Attempted, res.Failed = plain.attempted, plain.failed
	if !traced {
		m := res.Metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["alloc_kb_per_step"] = metric{float64(plain.alloc) / 1024 / float64(plain.evals), "KB"}
		m["job_s_p50"] = metric{plain.jobs.typical(), "s"}
		m["step_ms_p50"] = metric{plain.steps.typical(), "ms"}
		m["best_vs_default"] = metric{mean(plain.bestRatio), "ratio"}
		m["search_cost_sim_s"] = metric{mean(plain.simCost), "s"}
	} else {
		tr, err := wl.run(true)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		checks = append(checks, tr.errs...)
		if !slices.Equal(plain.digests, tr.digests) {
			checks = append(checks, "traced run's results differ from the untraced run's")
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		lm, err := replayLayers(e.sub("replay"), tr.logs)
		if err != nil {
			return nil, fmt.Errorf("%s layer replay: %w", name, err)
		}
		for k, v := range lm {
			res.Metrics[k] = v
		}
		res.Metrics["trace.overhead_job_s"] = metric{tr.jobs.typical() - plain.jobs.typical(), "s"}
		res.Metrics["trace.overhead_step_ms"] = metric{tr.steps.typical() - plain.steps.typical(), "ms"}
	}
	for _, c := range checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	res.Correct = len(checks) == 0
	return res, nil
}

// workload is one benchmark workload after set-up.
type workload interface {
	// run performs the workload's fixed work once. A traced run also
	// records every trial for the layer replay.
	run(traced bool) (*runOut, error)
	close()
}

var workloads = map[string]func(*env) (workload, error){
	"tune":     newTune,
	"serve":    newServe,
	"campaign": newCampaign,
}

// runOut is what one pass of a workload measured.
type runOut struct {
	jobs      byKind    // wall seconds per job (tuning session)
	steps     byKind    // milliseconds per step
	evals     int       // evaluations (round trips on serve) completed
	alloc     uint64    // heap bytes allocated while they ran
	bestRatio []float64 // best seconds / default-config seconds, per session
	simCost   []float64 // simulated seconds spent, per session
	attempted int
	failed    int
	errs      []string     // failed correctness checks
	digests   []string     // canonical per-session results, in a fixed order
	logs      []sessionLog // traced runs only
}

func newRunOut() *runOut {
	return &runOut{jobs: byKind{}, steps: byKind{}}
}

func (o *runOut) check(ok bool, format string, args ...any) {
	if !ok {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// env is the process-wide context: seeds, sizes and the scratch
// directory every file the benchmark writes lives under.
type env struct {
	seed    uint64
	seconds int
	dir     string
	root    string
}

// newEnv makes the run's scratch directory under .bench_build. The
// directory is left in place at exit, because unlinking fsynced files
// is slow on filesystems mounted with online discard (up to a tenth of
// a second per journal); run.sh removes it before the next run.
func newEnv(seed uint64, seconds int) (*env, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, seconds: seconds, dir: root, root: root}, nil
}

// sub returns a copy of e whose scratch directory is a fresh
// subdirectory.
func (e *env) sub(name string) *env {
	c := *e
	c.dir = filepath.Join(e.dir, name)
	return &c
}

// seedFor derives the i-th independent seed of a stream.
func (e *env) seedFor(stream string, i int) uint64 {
	h := e.seed
	for _, b := range []byte(stream) {
		h = splitmix(h ^ uint64(b))
	}
	return splitmix(h ^ uint64(i+1)*0x9e3779b97f4a7c15)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clients is the concurrency every workload uses for its sessions,
// clients and worker pools.
func clients() int { return runtime.NumCPU() }

// byKind holds samples per kind of job (a tuner on a workload). A
// workload's kinds differ in cost by up to an order of magnitude, so a
// median over all samples falls between two kinds and follows their
// tails; typical summarizes each kind by its own median instead.
type byKind map[string][]float64

func (b byKind) add(kind string, xs ...float64) { b[kind] = append(b[kind], xs...) }

// typical is the geometric mean over kinds of each kind's median.
func (b byKind) typical() float64 {
	var kinds []string
	for k := range b {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	sum, n := 0.0, 0
	for _, k := range kinds {
		if len(b[k]) > 0 {
			sum += math.Log(median(b[k]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// median linearly interpolates between the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := float64(len(s)-1) / 2
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// totalAlloc is the number of heap bytes allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// journalPolicy is the sync policy of every journal the benchmark
// writes. Journals live under the checkout, and where that is a disk
// an fsync takes from microseconds to seconds depending on the host's
// other I/O; without an fsync per record the journal numbers measure
// the program (encode, checksum, write), not the disk. Journal
// creation still fsyncs.
const journalPolicy = journal.SyncNone
