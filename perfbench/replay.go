package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/tuners"
)

// The layer replay gives the traced run its per-layer numbers: the
// trials a workload recorded are fed back through each layer's public
// functions from outside, one layer at a time, and every call is
// timed. Every workload replays through every layer, on its own data:
// tune's sessions are 100 selection samples plus a BO phase in the
// selected subspace, serve's and campaign's are light-tuner trials in
// the full space.
const (
	// replayModels bounds the sessions replayed through the
	// forest/GP/BO layers, the costly ones; replaySessions bounds the
	// rest.
	replayModels   = 3
	replaySessions = 10
	// replayTrials bounds the trials per session the forest and GP
	// replay use: ROBOTune's selection trains on 100 samples, and the
	// tuned sessions' BO phases stay below it.
	replayTrials = 100
	// ledgerOpens is how many times the ledger is reopened and timed.
	ledgerOpens = 5
)

func replayLayers(e *env, logs []sessionLog) (map[string]metric, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("no sessions recorded")
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	steps := []func(*env, []sessionLog, map[string]metric) error{
		replayBackend, replayForest, replayModel, replayJournal, replayServer,
	}
	for _, step := range steps {
		if err := step(e, logs, m); err != nil {
			return nil, err
		}
	}
	var retries, failed int
	for _, l := range logs {
		retries += l.res.Failures.Retries
		failed += l.res.Failures.Failed
	}
	m["tuners.retries"] = metric{float64(retries), "count"}
	m["tuners.failed_trials"] = metric{float64(failed), "count"}
	return m, nil
}

func first(logs []sessionLog, n int) []sessionLog {
	if len(logs) > n {
		return logs[:n]
	}
	return logs
}

// replayBackend re-evaluates every recorded configuration on a fresh
// evaluator of the session's backend workload.
func replayBackend(_ *env, logs []sessionLog, m map[string]metric) error {
	var us []float64
	for _, l := range first(logs, replaySessions) {
		bk, err := backend.Lookup(l.backend)
		if err != nil {
			return err
		}
		ev, err := bk.NewEvaluator(l.workload, l.seed, bk.DefaultCap(), backend.FaultPlan{})
		if err != nil {
			return err
		}
		for _, t := range l.trials {
			t0 := time.Now()
			ev.EvaluateSpec(t.cfg, backend.EvalSpec{})
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	m["backend.evals"] = metric{float64(len(us)), "count"}
	m["backend.eval_us_p50"] = metric{median(us), "us"}
	return nil
}

// replayForest trains the selection forest on each session's first
// replayTrials trials and ranks the parameter groups by permutation
// importance, as ROBOTune's parameter selection does.
func replayForest(_ *env, logs []sessionLog, m map[string]metric) error {
	var train, imp []float64
	for _, l := range first(logs, replayModels) {
		n := len(l.trials)
		if n > 100 {
			n = 100
		}
		x := make([][]float64, n)
		y := make([]float64, n)
		for i, t := range l.trials[:n] {
			x[i] = l.space.Encode(t.cfg)
			y[i] = t.rec.Seconds
		}
		cfg := forest.RFDefaults()
		cfg.Seed = l.seed
		t0 := time.Now()
		f := forest.Train(x, y, cfg)
		train = append(train, ms(time.Since(t0)))
		t0 = time.Now()
		f.PermutationImportance(l.space.Groups(), 10, l.seed, 0)
		imp = append(imp, ms(time.Since(t0)))
	}
	m["forest.train_ms"] = metric{median(train), "ms"}
	m["forest.importance_ms"] = metric{median(imp), "ms"}
	return nil
}

// modelData is the surrogate's view of a session: the BO engine's own
// observations for ROBOTune, otherwise the first replayTrials trials
// in the full space, censored where the run did not complete.
func modelData(l sessionLog) (x [][]float64, y []float64, cens []bool) {
	if l.boState != nil {
		return l.boState.X, l.boState.Y, l.boState.Censored
	}
	for _, t := range l.trials[:min(len(l.trials), replayTrials)] {
		x = append(x, l.space.Encode(t.cfg))
		y = append(y, math.Log(t.rec.Seconds))
		cens = append(cens, !t.rec.Completed)
	}
	return x, y, cens
}

// replayModel replays each session's observations through the GP
// (hyperparameter fit every fifth observation, incremental extension,
// posterior prediction) and through the BO engine (tell, suggest).
func replayModel(_ *env, logs []sessionLog, m map[string]metric) error {
	var fit, extend, predict, suggest []float64
	refits := 0
	for _, l := range first(logs, replayModels) {
		x, y, cens := modelData(l)
		n := len(x)
		init := tuneInit
		if init > n/2 {
			init = n / 2
		}
		if init < 2 {
			continue
		}
		gcfg := gp.DefaultConfig()
		gcfg.Seed = l.seed
		var g *gp.GP
		for k := init; k <= n; k++ {
			if (k-init)%5 == 0 {
				t0 := time.Now()
				ng, err := gp.Fit(x[:k], y[:k], gcfg)
				fit = append(fit, ms(time.Since(t0)))
				if err != nil {
					return fmt.Errorf("gp fit at n=%d: %w", k, err)
				}
				g = ng
			} else {
				t0 := time.Now()
				ng, err := g.Extend(x[:k], y[:k])
				extend = append(extend, ms(time.Since(t0)))
				if err != nil {
					return fmt.Errorf("gp extend to n=%d: %w", k, err)
				}
				g = ng
			}
			t0 := time.Now()
			g.Predict(x[k%n])
			predict = append(predict, float64(time.Since(t0).Nanoseconds())/1e3)
		}

		bcfg := bo.DefaultConfig()
		bcfg.Seed = l.seed
		eng := bo.New(len(x[0]), bcfg)
		for k := 0; k < n; k++ {
			if k >= init {
				t0 := time.Now()
				if _, err := eng.Suggest(); err != nil {
					return fmt.Errorf("bo suggest at n=%d: %w", k, err)
				}
				suggest = append(suggest, ms(time.Since(t0)))
			}
			tell := eng.Tell
			if cens[k] {
				tell = eng.TellCensored
			}
			if err := tell(x[k], y[k]); err != nil {
				return err
			}
		}
		refits += eng.RefitStats().HyperRefits
	}
	m["gp.fit_ms_p50"] = metric{median(fit), "ms"}
	m["gp.extend_ms_p50"] = metric{median(extend), "ms"}
	m["gp.predict_us_p50"] = metric{median(predict), "us"}
	m["bo.suggest_ms_p50"] = metric{median(suggest), "ms"}
	m["bo.refits"] = metric{float64(refits), "count"}
	return nil
}

// replayJournal appends every recorded trial to a fresh session
// journal, reopens it (recovery reads every record back
// for replay), and records the sessions as tasks of a campaign ledger
// that is then reopened.
func replayJournal(e *env, logs []sessionLog, m map[string]metric) error {
	var appendUS, openMS, ledgerMS []float64
	replayed := 0
	var lmeta journal.LedgerMeta
	lmeta.Seed, lmeta.Config = e.seed, "perfbench-replay"
	for i, l := range first(logs, replaySessions) {
		path := filepath.Join(e.dir, fmt.Sprintf("session%02d.jnl", i))
		meta := journal.Meta{Seed: l.seed, Budget: len(l.trials), Tuner: l.tuner}
		jn, err := journal.Open(path, meta, journalPolicy)
		if err != nil {
			return err
		}
		cost := 0.0
		for k, t := range l.trials {
			cost += t.rec.Seconds
			ent := journal.EvalEntry{Trial: k, Config: t.cfg.ToMap(), Seconds: t.rec.Seconds, Raw: t.rec.Raw,
				Completed: t.rec.Completed, OOM: t.rec.OOM, Infeasible: t.rec.Infeasible, Transient: t.rec.Transient,
				ObjEvals: k + 1, ObjCost: cost}
			t0 := time.Now()
			err := jn.Append(ent)
			appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				jn.Close()
				return err
			}
		}
		if err := jn.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		jn, err = journal.Open(path, meta, journalPolicy)
		openMS = append(openMS, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		replayed += jn.ReplayPending()
		jn.Close()
		lmeta.Tasks = append(lmeta.Tasks, fmt.Sprintf("%s/%d", l.tuner, i))
		lmeta.Journals = append(lmeta.Journals, path)
	}

	path := filepath.Join(e.dir, "campaign.ledger")
	led, err := journal.OpenLedger(path, lmeta, journalPolicy)
	if err != nil {
		return err
	}
	for i, l := range first(logs, replaySessions) {
		payload, err := json.Marshal(digest(l.res))
		if err != nil {
			led.Close()
			return err
		}
		if err := led.AppendStart(i); err != nil {
			led.Close()
			return err
		}
		if err := led.AppendTaskDone(journal.TaskDone{Task: i, Trials: len(l.trials), Result: payload}); err != nil {
			led.Close()
			return err
		}
	}
	if err := led.Close(); err != nil {
		return err
	}
	for i := 0; i < ledgerOpens; i++ {
		t0 := time.Now()
		led, err := journal.OpenLedger(path, lmeta, journalPolicy)
		ledgerMS = append(ledgerMS, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if _, ok := led.TaskDone(0); !ok {
			led.Close()
			return fmt.Errorf("reopened ledger lost its done records")
		}
		led.Close()
	}
	m["journal.appends"] = metric{float64(len(appendUS)), "count"}
	m["journal.append_us_p50"] = metric{median(appendUS), "us"}
	m["journal.open_ms_p50"] = metric{median(openMS), "ms"}
	m["journal.replayed"] = metric{float64(replayed), "count"}
	m["journal.ledger_open_ms"] = metric{median(ledgerMS), "ms"}
	return nil
}

// replayServer drives each recorded session through robotuned twice:
// by direct handler dispatch (no sockets), timing each handler, and
// through the client over loopback HTTP. The difference between the
// client's round trip and the handlers' time is the network stack's
// share. ROBOTune sessions are replayed as randomsearch sessions: the
// wire path is the subject here, not the surrogate.
func replayServer(e *env, logs []sessionLog, m map[string]metric) error {
	srv := server.New(server.Options{})
	defer srv.Shutdown()
	h := srv.Handler()
	var create, propose, observeUS, finish, directRT, clientRT []float64
	call := func(method, path string, body any, out any) (time.Duration, error) {
		var data []byte
		if body != nil {
			var err error
			if data, err = json.Marshal(body); err != nil {
				return 0, err
			}
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code < 200 || rec.Code > 299 {
			return d, fmt.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
		}
		if out != nil {
			return d, json.Unmarshal(rec.Body.Bytes(), out)
		}
		return d, nil
	}
	for _, l := range first(logs, replaySessions) {
		spec := replaySpec(l)
		var st server.StatusResponse
		d, err := call("POST", "/v1/sessions", spec, &st)
		if err != nil {
			return err
		}
		create = append(create, ms(d))
		base := "/v1/sessions/" + st.ID
		for k := 0; ; k++ {
			var pr server.ProposeResponse
			dp, err := call("POST", base+"/propose", map[string]int{"n": 1}, &pr)
			if err != nil {
				return err
			}
			if len(pr.Proposals) == 0 {
				break
			}
			obs := replayObservation(l, k, pr.Proposals[0])
			do, err := call("POST", base+"/observe", map[string]any{"observations": []server.Observation{obs}}, nil)
			if err != nil {
				return err
			}
			propose = append(propose, float64(dp.Nanoseconds())/1e3)
			observeUS = append(observeUS, float64(do.Nanoseconds())/1e3)
			directRT = append(directRT, float64((dp+do).Nanoseconds())/1e3)
		}
		d, err = call("DELETE", base, nil, nil)
		if err != nil {
			return err
		}
		finish = append(finish, ms(d))
	}

	hs := httptest.NewServer(h)
	defer hs.Close()
	cl := client.New(hs.URL)
	cl.HTTP = &http.Client{Transport: &http.Transport{}}
	defer cl.HTTP.CloseIdleConnections()
	for _, l := range first(logs, replaySessions) {
		ses, err := cl.Create(replaySpec(l))
		if err != nil {
			return err
		}
		for k := 0; ; k++ {
			t0 := time.Now()
			props, _, err := ses.Propose(1)
			if err != nil {
				return err
			}
			if len(props) == 0 {
				break
			}
			if _, err := ses.Observe(replayObservation(l, k, props[0])); err != nil {
				return err
			}
			clientRT = append(clientRT, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if _, err := ses.Finish(); err != nil {
			return err
		}
	}
	mt := srv.Metrics()
	m["server.create_ms_p50"] = metric{median(create), "ms"}
	m["server.propose_us_p50"] = metric{median(propose), "us"}
	m["server.observe_us_p50"] = metric{median(observeUS), "us"}
	m["server.finish_ms_p50"] = metric{median(finish), "ms"}
	m["server.errors"] = metric{float64(mt.Errors4xx.Load() + mt.Errors5xx.Load()), "count"}
	m["net.overhead_us_p50"] = metric{median(clientRT) - median(directRT), "us"}
	return nil
}

func replaySpec(l sessionLog) client.SessionSpec {
	tuner := l.tuner
	if tuner == "robotune" {
		tuner = "randomsearch"
	}
	raw, _ := json.Marshal(l.backend)
	return client.SessionSpec{Tuner: tuner, Space: raw, Budget: len(l.trials), Seed: l.seed}
}

// replayObservation answers proposal p with the k-th recorded outcome
// (cycling), under the proposal's cap.
func replayObservation(l sessionLog, k int, p server.WireProposal) server.Observation {
	t := l.trials[k%len(l.trials)]
	rec := t.rec
	if rec.Completed {
		obj := &tuners.FuncObjective{Fn: func(conf.Config) (float64, bool) { return t.rec.Seconds, true }}
		rec = obj.EvaluateSpec(t.cfg, backend.EvalSpec{Cap: p.Cap})
	}
	return server.Observation{Config: p.Config, Seconds: rec.Seconds, Raw: rec.Raw, Completed: rec.Completed}
}
