package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/tuners"
)

// evaluator is the capability set every registered backend's
// evaluator has; clock forwards all of it, so wrapping changes no
// code path in the tuner or the session.
type evaluator interface {
	backend.Evaluator
	backend.BatchEvaluator
	backend.StreamRestorer
	backend.Identifiable
	backend.Measurer
	backend.FidelitySupporter
}

func asEvaluator(ev backend.Evaluator) (evaluator, error) {
	full, ok := ev.(evaluator)
	if !ok {
		return nil, fmt.Errorf("evaluator %T lacks a capability the benchmark forwards", ev)
	}
	return full, nil
}

// clock wraps one session's evaluator and timestamps each call, so
// the gap from one evaluation returning to the next starting — the
// tuner's own compute between evaluations — can be measured from
// outside. A traced clock also keeps every trial for the layer
// replay. A clock serves one session, which calls it from a single
// goroutine.
type clock struct {
	inner  evaluator
	traced bool
	// after, when set, runs after every call with the call count.
	after func(calls int)

	starts, ends []time.Time
	trials       []trial
}

func newClock(inner evaluator, traced bool) *clock {
	return &clock{inner: inner, traced: traced, starts: make([]time.Time, 0, 256), ends: make([]time.Time, 0, 256)}
}

func (c *clock) EvaluateSpec(cfg conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	c.starts = append(c.starts, time.Now())
	rec := c.inner.EvaluateSpec(cfg, spec)
	c.ends = append(c.ends, time.Now())
	if c.traced {
		c.trials = append(c.trials, trial{cfg: cfg, rec: rec})
	}
	if c.after != nil {
		c.after(len(c.starts))
	}
	return rec
}

func (c *clock) EvaluateSpecCtx(ctx context.Context, cfgs []conf.Config, spec backend.EvalSpec) []backend.EvalRecord {
	c.starts = append(c.starts, time.Now())
	recs := c.inner.EvaluateSpecCtx(ctx, cfgs, spec)
	c.ends = append(c.ends, time.Now())
	if c.traced {
		for i, rec := range recs {
			if !rec.Skipped {
				c.trials = append(c.trials, trial{cfg: cfgs[i], rec: rec})
			}
		}
	}
	if c.after != nil {
		c.after(len(c.starts))
	}
	return recs
}

func (c *clock) SearchCost() float64                   { return c.inner.SearchCost() }
func (c *clock) Evals() int                            { return c.inner.Evals() }
func (c *clock) RestoreStream(evals int, cost float64) { c.inner.RestoreStream(evals, cost) }
func (c *clock) WorkloadName() string                  { return c.inner.WorkloadName() }
func (c *clock) DatasetName() string                   { return c.inner.DatasetName() }
func (c *clock) SupportsFidelity() bool                { return c.inner.SupportsFidelity() }
func (c *clock) Measure(cfg conf.Config, reps int, seed uint64) float64 {
	return c.inner.Measure(cfg, reps, seed)
}

// gapsMS returns the gaps, in milliseconds, before every call from
// index `from` on: the time from call i-1 returning to call i starting.
func (c *clock) gapsMS(from int) []float64 {
	if from < 1 {
		from = 1
	}
	var out []float64
	for i := from; i < len(c.starts); i++ {
		out = append(out, ms(c.starts[i].Sub(c.ends[i-1])))
	}
	return out
}

// trial is one recorded evaluation.
type trial struct {
	cfg conf.Config
	rec backend.EvalRecord
}

// sessionLog is what the layer replay needs from one traced session.
type sessionLog struct {
	space   *conf.Space
	backend string // registry name of the space's backend
	// workload is the backend workload the backend replay evaluates.
	workload backend.Workload
	tuner    string // cli tuner kind
	seed     uint64
	trials   []trial
	// boState is the BO engine's final observation set in the
	// selected subspace (ROBOTune sessions only); the GP and BO replay
	// use it instead of the full-space trials.
	boState *bo.State
	res     tuners.Result
}

// digest renders the parts of a result a correct run must reproduce
// bit for bit (JSON round-trips float64 exactly).
func digest(res tuners.Result) string {
	var best map[string]float64
	if res.Found {
		best = res.Best.ToMap()
	}
	b, _ := json.Marshal(struct {
		Found          bool
		Best           map[string]float64
		BestSeconds    float64
		Evals          int
		SearchCost     float64
		SelectionEvals int
		SelectionCost  float64
		Trace          []float64
		Failures       tuners.FailureStats
	}{res.Found, best, finite(res.BestSeconds), res.Evals, res.SearchCost,
		res.SelectionEvals, res.SelectionCost, res.Trace, res.Failures})
	return string(b)
}

// finite maps the not-found +Inf incumbent to -1 so it encodes.
func finite(v float64) float64 {
	if v > 1e300 || v != v {
		return -1
	}
	return v
}
