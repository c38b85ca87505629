package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/journal"
	"repro/internal/schedule"
	"repro/internal/tuners"
)

// The campaign workload is durable schedule.RunCampaign runs: a ledger
// plus per-task session journals, nproc concurrent sessions over the
// light-tuner x backend grid, under the default fault plan and a retry
// policy so the failure and retry paths run. Budget reallocation stays
// off: with concurrent sessions its grants depend on completion
// timing, and the quality metrics must repeat exactly. Each round
// tunes the grid with fresh seeds; each run then resumes a mid-grid
// ledger, so journal writes (fresh runs) sit beside journal reads
// (ledger recovery, done-record reuse, session-journal replay).
const (
	campaignBudget  = 1000
	campaignRetries = 2
)

// lightPairs are the backend workloads the light tuners run on: the
// campaign tunes them, and serve's replay evaluates on them.
var lightPairs = []struct{ backend, workload string }{
	{"spark", "KMeans"}, {"clustersim", "BatchETL"},
}

// campaignRounds sizes the fixed work from --seconds: one campaign
// over the grid is a round, and a round takes about a second on a
// 2-CPU AMD EPYC host. Every round writes a ledger and a journal per
// task, so the budget is large and the rounds few.
func campaignRounds(seconds int) int {
	return seconds
}

type campaignWL struct {
	e     *env
	pairs []tunePair
	plan  backend.FaultPlan
	// refs are round 0's uninterrupted task results, from set-up.
	refs []string
	// The resume template: round 0's ledger killed mid-grid in
	// resumeDir (the ledger records journal paths, so the resume runs
	// there), whose first settledN tasks finished. It is built after
	// the measured rounds, outside set-up, because building it fsyncs
	// every journal it creates.
	resumeDir string
	settledN  int
}

type campaignTask struct {
	tuner string
	pair  int
	seed  uint64
}

// grid is round r's task list: every light tuner on every pair.
func (c *campaignWL) grid(r int) []campaignTask {
	var g []campaignTask
	for pi := range c.pairs {
		for _, tn := range serveTuners {
			g = append(g, campaignTask{tuner: tn, pair: pi, seed: c.e.seedFor("campaign", r*1000+len(g))})
		}
	}
	return g
}

func newCampaign(e *env) (workload, error) {
	c := &campaignWL{e: e, plan: backend.DefaultFaultPlan()}
	c.plan.Seed = e.seedFor("faults", 0)
	for _, p := range lightPairs {
		pair, err := newPair(e, p.backend, p.workload)
		if err != nil {
			return nil, err
		}
		c.pairs = append(c.pairs, pair)
	}

	// Warm-up and reference: round 0's grid, uninterrupted. It runs
	// without a ledger or session journals: creating them fsyncs, and
	// set-up would time the host disk.
	res, _, err := c.campaign(c.grid(0), "", false, false, nil)
	if err != nil {
		return nil, err
	}
	for i, t := range res.Tasks {
		if t.Failed != "" {
			return nil, fmt.Errorf("warm-up task %d failed: %s", i, t.Failed)
		}
		c.refs = append(c.refs, digest(t.Result))
	}
	return c, nil
}

func (c *campaignWL) close() {}

// taskControl lets the template build cancel a task deterministically:
// before any evaluation (start) or after a given number of them
// (after > 0).
type taskControl struct {
	start bool
	after int
}

// taskClock is what one task measured: its clock (evaluation
// timestamps) and the moment the campaign constructed it.
type taskClock struct {
	built time.Time
	clk   *clock
}

// jobSeconds is the task's session wall time, from construction to
// its last evaluation returning.
func (t taskClock) jobSeconds() float64 {
	if t.clk == nil || len(t.clk.ends) == 0 {
		return 0
	}
	return t.clk.ends[len(t.clk.ends)-1].Sub(t.built).Seconds()
}

// campaign runs grid as a durable campaign in dir, or as a campaign
// with no ledger and no session journals when dir is "". A traced run
// records every task's trials. With precreate, the ledger and the
// session journals are created (and fsynced, as creation always is)
// before the campaign starts: it opens them empty instead of creating
// them, which keeps the host disk's fsync latency out of the timed
// sessions.
func (c *campaignWL) campaign(grid []campaignTask, dir string, traced, precreate bool, kill []taskControl) (*schedule.CampaignResult, []taskClock, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	clocks := make([]taskClock, len(grid))
	tasks := make([]schedule.Task, len(grid))
	for i, ct := range grid {
		i, ct := i, ct
		p := c.pairs[ct.pair]
		req := tuners.Request{Budget: campaignBudget, Seed: ct.seed, Retry: tuners.RetryPolicy{MaxRetries: campaignRetries}}
		var after func(int)
		if kill != nil && (kill[i].start || kill[i].after > 0) {
			ctx, cancel := context.WithCancel(context.Background())
			if kill[i].start {
				cancel()
			} else {
				n := kill[i].after
				after = func(calls int) {
					if calls >= n {
						cancel()
					}
				}
			}
			req.Ctx = ctx
		}
		var jpath string
		if dir != "" {
			jpath = filepath.Join(dir, fmt.Sprintf("task%02d.jnl", i))
		}
		tasks[i] = schedule.Task{
			Name: fmt.Sprintf("%s/%s/%d", ct.tuner, p.w.WorkloadName(), i),
			New: func() (tuners.SessionTuner, tuners.Objective) {
				built := time.Now()
				tn, err := cli.BuildTuner(ct.tuner, nil, 0)
				if err != nil {
					panic(err)
				}
				ev, err := p.bk.NewEvaluator(p.w, ct.seed, p.bk.DefaultCap(), c.plan)
				if err != nil {
					panic(err)
				}
				full, err := asEvaluator(ev)
				if err != nil {
					panic(err)
				}
				clk := newClock(full, traced)
				clk.after = after
				clocks[i] = taskClock{built: built, clk: clk}
				return tn, clk
			},
			Space:       p.space,
			Request:     req,
			JournalPath: jpath,
			Meta: journal.Meta{Seed: ct.seed, Budget: campaignBudget, Workload: p.w.WorkloadName(),
				Dataset: p.w.DatasetName(), Tuner: ct.tuner, Retries: campaignRetries, Faults: c.plan.String()},
		}
	}
	opts := schedule.CampaignOptions{
		Sync:   journalPolicy,
		Seed:   c.e.seed,
		Config: "perfbench",
	}
	if dir != "" {
		opts.LedgerPath = filepath.Join(dir, "campaign.ledger")
	}
	if precreate {
		if err := createFiles(tasks, opts); err != nil {
			return nil, nil, err
		}
	}
	res, err := schedule.NewScheduler(clients(), clients()).RunCampaign(tasks, opts)
	return res, clocks, err
}

// createFiles writes the campaign's ledger and session journals with
// no records, exactly as RunCampaign would open them.
func createFiles(tasks []schedule.Task, opts schedule.CampaignOptions) error {
	meta := journal.LedgerMeta{Seed: opts.Seed, Config: opts.Config}
	for _, t := range tasks {
		meta.Tasks = append(meta.Tasks, t.Name)
		meta.Journals = append(meta.Journals, t.JournalPath)
		jn, err := journal.Open(t.JournalPath, t.Meta, opts.Sync)
		if err != nil {
			return err
		}
		if err := jn.Close(); err != nil {
			return err
		}
	}
	led, err := journal.OpenLedger(opts.LedgerPath, meta, opts.Sync)
	if err != nil {
		return err
	}
	return led.Close()
}

// buildTemplate makes the mid-grid ledger from round 0's grid: the
// first third of the tasks finish, the second third is cancelled
// halfway through its budget and the rest is cancelled before
// evaluating anything.
func (c *campaignWL) buildTemplate() error {
	grid := c.grid(0)
	n := len(grid)
	kill := make([]taskControl, n)
	c.settledN = n / 3
	for i := c.settledN; i < n; i++ {
		if i < 2*n/3 {
			kill[i].after = campaignBudget / 2
		} else {
			kill[i].start = true
		}
	}
	c.resumeDir = filepath.Join(c.e.dir, "resume")
	_, _, err := c.campaign(grid, c.resumeDir, false, false, kill)
	return err
}

func (c *campaignWL) run(traced bool) (*runOut, error) {
	out := newRunOut()
	alloc := totalAlloc()
	for r := 0; r < campaignRounds(c.e.seconds); r++ {
		grid := c.grid(r)
		dir := filepath.Join(c.e.dir, fmt.Sprintf("round%d-traced%v", r, traced))
		res, clocks, err := c.campaign(grid, dir, traced, true, nil)
		if err != nil {
			return nil, err
		}
		for i, t := range res.Tasks {
			out.attempted++
			if t.Failed != "" {
				out.failed++
				out.check(false, "campaign round %d task %d failed: %s", r, i, t.Failed)
				continue
			}
			d := digest(t.Result)
			if r == 0 {
				out.check(d == c.refs[i], "campaign task %d: result differs from the warm-up run's", i)
			}
			out.digests = append(out.digests, d)
			tc := clocks[i]
			// A task's place in the grid is its kind: a tuner on a
			// backend workload.
			kind := fmt.Sprint(i)
			out.jobs.add(kind, tc.jobSeconds())
			out.steps.add(kind, tc.clk.gapsMS(1)...)
			out.evals += len(tc.clk.starts)
			p := c.pairs[grid[i].pair]
			if t.Result.Found {
				out.bestRatio = append(out.bestRatio, t.Result.BestSeconds/p.defaultSec)
			}
			out.simCost = append(out.simCost, t.Result.SearchCost)
			if traced && r == 0 {
				out.logs = append(out.logs, sessionLog{space: p.space, backend: p.bk.Name(), workload: p.w, tuner: grid[i].tuner,
					seed: grid[i].seed, trials: tc.clk.trials, res: t.Result})
			}
		}
	}
	out.alloc = totalAlloc() - alloc
	if traced {
		return out, nil
	}
	return out, c.resume(out)
}

// resume builds the template, resumes round 0's campaign from it and
// checks that the stitched result is bit-identical to the
// uninterrupted run and that exactly the settled tasks were reused.
func (c *campaignWL) resume(out *runOut) error {
	if err := c.buildTemplate(); err != nil {
		return err
	}
	res, _, err := c.campaign(c.grid(0), c.resumeDir, false, false, nil)
	if err != nil {
		return err
	}
	out.check(res.Resumed, "campaign resume: ledger was not resumed")
	for k, t := range res.Tasks {
		out.attempted++
		if t.Failed != "" {
			out.failed++
			out.check(false, "campaign resume task %d failed: %s", k, t.Failed)
			continue
		}
		out.check(digest(t.Result) == c.refs[k], "campaign resume task %d: resumed result differs from the uninterrupted run", k)
		out.check(t.Reused == (k < c.settledN), "campaign resume task %d: Reused=%v, want %v", k, t.Reused, k < c.settledN)
	}
	return nil
}
