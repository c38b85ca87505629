package main

import (
	"time"

	"repro/internal/backend"
	_ "repro/internal/backend/backends"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/tuners"
)

// The tune workload runs ROBOTune sessions back to back in process,
// the robotune CLI path: each session gets a fresh memo store (so it
// runs the full 100-sample parameter selection), the paper's default
// options and a budget of 100. About nine tenths of a session is
// tuner compute (GP hyper-fit, acquisition multistart, forest and
// permutation importance), so changes to gp, bo and forest show here.
const (
	tuneBudget = 100
	// tuneInit is core.Options' default TuningSamples: the BO phase
	// starts after the selection samples and this many LHS samples.
	tuneInit = 20
	// tuneWorkers is the tuner's own compute parallelism. A parallel
	// section waits for its slowest worker, so on a shared host a
	// stall of either vCPU stalls the session: with one worker per
	// vCPU, session times spread 7% over eight runs, with one worker
	// 2% (interleaved runs). Results are identical for every value.
	tuneWorkers = 1
)

// tunePairs is the session rotation: Spark analytics jobs and
// cluster-scheduler traces, each at its smallest dataset.
var tunePairs = []struct{ backend, workload string }{
	{"spark", "KMeans"}, {"spark", "PageRank"}, {"spark", "TeraSort"},
	{"clustersim", "BatchETL"}, {"clustersim", "CIBuild"},
}

// tunePair is one backend workload a session tunes, with the space
// every session on it shares (conf identifies spaces by pointer) and
// the default configuration's fault-free time, the base of
// best_vs_default.
type tunePair struct {
	bk         backend.Backend
	w          backend.Workload
	space      *conf.Space
	defaultSec float64
}

func newPair(e *env, bkName, wlName string) (tunePair, error) {
	bk, err := backend.Lookup(bkName)
	if err != nil {
		return tunePair{}, err
	}
	w, err := bk.Workload(wlName, 0)
	if err != nil {
		return tunePair{}, err
	}
	ev, err := bk.NewEvaluator(w, e.seedFor("default", 0), bk.DefaultCap(), backend.FaultPlan{})
	if err != nil {
		return tunePair{}, err
	}
	full, err := asEvaluator(ev)
	if err != nil {
		return tunePair{}, err
	}
	space := bk.Space()
	return tunePair{bk: bk, w: w, space: space, defaultSec: full.Measure(space.Default(), 5, e.seedFor("default", 1))}, nil
}

type tuneWL struct {
	pairs []tunePair
	// sessions is the fixed work: pair index and seed per session.
	sessions []tuneSpec
}

type tuneSpec struct {
	pair int
	seed uint64
}

// tuneSessions sizes the fixed work from --seconds: a session takes
// about 1.7 s on a 2-CPU AMD EPYC host, so a round of the five pairs
// takes about 8.5 s; every pair gets the same number of sessions, at
// least one.
func tuneSessions(seconds int) int {
	return len(tunePairs) * max(1, (2*seconds+8)/17)
}

func newTune(e *env) (workload, error) {
	t := &tuneWL{}
	for _, p := range tunePairs {
		pair, err := newPair(e, p.backend, p.workload)
		if err != nil {
			return nil, err
		}
		t.pairs = append(t.pairs, pair)
	}
	for i := 0; i < tuneSessions(e.seconds); i++ {
		t.sessions = append(t.sessions, tuneSpec{pair: i % len(t.pairs), seed: e.seedFor("tune", i)})
	}

	// Warm-up: one session outside the measured list fills caches.
	if _, _, _, err := t.session(tuneSpec{pair: 0, seed: 1}, false); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tuneWL) close() {}

// session runs one ROBOTune session on a fresh memo store.
func (t *tuneWL) session(sp tuneSpec, traced bool) (tuners.Result, *clock, *core.ROBOTune, error) {
	p := t.pairs[sp.pair]
	ev, err := p.bk.NewEvaluator(p.w, sp.seed, p.bk.DefaultCap(), backend.FaultPlan{})
	if err != nil {
		return tuners.Result{}, nil, nil, err
	}
	full, err := asEvaluator(ev)
	if err != nil {
		return tuners.Result{}, nil, nil, err
	}
	clk := newClock(full, traced)
	rt := core.New(nil, core.Options{Workers: tuneWorkers})
	res := rt.Run(tuners.NewSession(clk, p.space, tuners.Request{Budget: tuneBudget, Seed: sp.seed}))
	return res, clk, rt, nil
}

func (t *tuneWL) run(traced bool) (*runOut, error) {
	out := newRunOut()
	alloc := totalAlloc()
	for _, sp := range t.sessions {
		t0 := time.Now()
		res, clk, rt, err := t.session(sp, traced)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		p := t.pairs[sp.pair]
		kind := p.w.WorkloadName()
		out.jobs.add(kind, d)
		out.attempted++
		if !res.Found || res.Cancelled {
			out.failed++
			out.check(false, "tune session %s seed %d found no configuration", p.w.WorkloadName(), sp.seed)
			continue
		}
		// The BO phase begins after the selection samples and the
		// initial design; each gap before a BO-phase evaluation is
		// one propose latency.
		out.steps.add(kind, clk.gapsMS(res.SelectionEvals+tuneInit)...)
		out.evals += len(clk.starts)
		out.bestRatio = append(out.bestRatio, res.BestSeconds/p.defaultSec)
		out.simCost = append(out.simCost, res.SelectionCost+res.SearchCost)
		out.digests = append(out.digests, digest(res))
		if traced {
			log := sessionLog{space: p.space, backend: p.bk.Name(), workload: p.w, tuner: "robotune", seed: sp.seed, trials: clk.trials, res: res}
			if rt.LastEngine != nil {
				st := rt.LastEngine.State()
				log.boState = &st
			}
			out.logs = append(out.logs, log)
		}
	}
	out.alloc = totalAlloc() - alloc
	return out, nil
}
