package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/tuners"
)

// The serve workload is robotuned (server.New(...).Handler() behind
// httptest over loopback) driven by the client package: nproc
// closed-loop clients each run a fixed list of whole finite-budget
// sessions (create, then propose(1)/observe until done, then finish).
// The tuners are the ones whose propose costs microseconds and every
// observation is a closed-form function computed in the client, so
// wire decode, handlers and the session store dominate and the GP is
// bypassed. The server runs without a journal directory: on a shared
// disk, journal writes inside a round trip time the other tenants'
// I/O (the journal layer is measured by the layer replay and by the
// campaign workload).
const serveBudget = 500

var (
	serveTuners = []string{"randomsearch", "bestconfig", "gunther", "cmaes", "successivehalving"}
	// serveSpaces are the light pairs' backend spaces.
	serveSpaces = []string{lightPairs[0].backend, lightPairs[1].backend}
)

// serveSessions sizes the fixed work from --seconds: 30 sessions take
// about a second from 2 clients on a 2-CPU AMD EPYC host.
func serveSessions(seconds int) int {
	n := len(serveTuners) * len(serveSpaces)
	if seconds < 5 {
		return n
	}
	return 30 * seconds
}

type serveSpec struct {
	tuner, space string
	seed         uint64
}

type serveWL struct {
	spaces map[string]*conf.Space
	// workloads names, per space, the backend workload the layer
	// replay evaluates recorded configurations on.
	workloads map[string]backend.Workload
	specs     []serveSpec
	refs      []tuners.Result // in-process Drive of each spec, once computed
	srv       *server.Server
	hs        *httptest.Server
	cl        *client.Client
}

func newServe(e *env) (workload, error) {
	s := &serveWL{spaces: map[string]*conf.Space{}, workloads: map[string]backend.Workload{}}
	for i, name := range serveSpaces {
		bk, err := backend.Lookup(name)
		if err != nil {
			return nil, err
		}
		sp := bk.Space()
		s.spaces[name] = sp
		if s.workloads[name], err = bk.Workload(lightPairs[i].workload, 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < serveSessions(e.seconds); i++ {
		sp := serveSpec{
			tuner: serveTuners[i%len(serveTuners)],
			space: serveSpaces[(i/len(serveTuners))%len(serveSpaces)],
			seed:  e.seedFor("serve", i),
		}
		s.specs = append(s.specs, sp)
	}

	s.srv = server.New(server.Options{})
	s.hs = httptest.NewServer(s.srv.Handler())
	s.cl = client.New(s.hs.URL)
	s.cl.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}}
	// Warm-up: one wire session per tuner kind and space.
	for i := 0; i < len(serveTuners)*len(serveSpaces) && i < len(s.specs); i++ {
		if _, err := s.wireSession(s.specs[i], nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *serveWL) close() {
	s.cl.HTTP.CloseIdleConnections()
	s.hs.Close()
	s.srv.Shutdown()
}

// seconds is the closed-form objective: 5 s plus up to 50 s by the
// squared distance from an optimum in the unit cube drawn from the
// session's seed. It stays below every stopping cap the light tuners
// set (60 s and up), so no observation is censored and the wire and
// in-process cost accounting agree exactly.
func (s *serveWL) seconds(sp serveSpec, c conf.Config) float64 {
	u := s.spaces[sp.space].Encode(c)
	x := sp.seed
	sum := 0.0
	for _, v := range u {
		x = splitmix(x)
		d := v - float64(x>>11)/(1<<53)
		sum += d * d
	}
	return 5 + 50*sum/float64(len(u))
}

// reference runs the spec's stepper in process against the same
// closed-form objective: the result every wire session must equal.
func (s *serveWL) reference(sp serveSpec) (tuners.Result, error) {
	space := s.spaces[sp.space]
	st, err := cli.BuildStepper(sp.tuner, space, serveBudget, sp.seed, "", "", core.Options{})
	if err != nil {
		return tuners.Result{}, err
	}
	return tuners.Drive(st, tuners.NewSession(s.objective(sp), space, tuners.Request{Budget: serveBudget, Seed: sp.seed})), nil
}

// objective is the spec's closed-form objective behind
// tuners.FuncObjective, whose cap semantics both the wire sessions and
// the in-process references observe through.
func (s *serveWL) objective(sp serveSpec) *tuners.FuncObjective {
	return &tuners.FuncObjective{Fn: func(c conf.Config) (float64, bool) { return s.seconds(sp, c), true }}
}

func (s *serveWL) spec(sp serveSpec) client.SessionSpec {
	raw, _ := json.Marshal(sp.space)
	return client.SessionSpec{Tuner: sp.tuner, Space: raw, Budget: serveBudget, Seed: sp.seed}
}

// wireStats is what one wire session measured.
type wireStats struct {
	rtMS     []float64
	requests int
	trials   []trial
}

// wireSession creates a session, drives it to done and finishes it.
func (s *serveWL) wireSession(sp serveSpec, st *wireStats) (*client.ResultResponse, error) {
	if st == nil {
		st = &wireStats{}
	}
	st.requests++
	ses, err := s.cl.Create(s.spec(sp))
	if err != nil {
		return nil, err
	}
	space := s.spaces[sp.space]
	obj := s.objective(sp)
	for {
		t0 := time.Now()
		st.requests++
		props, done, err := ses.Propose(1)
		if err != nil {
			return nil, err
		}
		if len(props) == 0 {
			if done {
				break
			}
			return nil, fmt.Errorf("session %s proposed nothing with nothing outstanding", ses.ID)
		}
		p := props[0]
		c, err := space.FromRaw(p.Config)
		if err != nil {
			return nil, err
		}
		rec := obj.EvaluateSpec(c, backend.EvalSpec{Cap: p.Cap})
		st.requests++
		if _, err := ses.Observe(client.Observation{Config: p.Config, Seconds: rec.Seconds, Raw: rec.Raw, Completed: rec.Completed}); err != nil {
			return nil, err
		}
		st.rtMS = append(st.rtMS, ms(time.Since(t0)))
		if st.trials != nil {
			st.trials = append(st.trials, trial{cfg: c, rec: rec})
		}
	}
	st.requests++
	res, err := ses.Finish()
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// sameResult compares a wire result with the in-process reference.
func sameResult(w *client.ResultResponse, ref tuners.Result) bool {
	if w.Found != ref.Found || w.Trials != len(ref.Trace) || w.Evals != ref.Evals ||
		math.Float64bits(w.Cost) != math.Float64bits(ref.SearchCost) {
		return false
	}
	if !ref.Found {
		return true
	}
	if math.Float64bits(w.BestSeconds) != math.Float64bits(ref.BestSeconds) {
		return false
	}
	want := ref.Best.ToMap()
	if len(w.Best) != len(want) {
		return false
	}
	for k, v := range want {
		if math.Float64bits(w.Best[k]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// fanOut runs job(i) for i in [0, n) on clients() closed-loop workers,
// worker k taking jobs k, k+clients(), ...
func fanOut(n int, job func(i int)) {
	var wg sync.WaitGroup
	for k := 0; k < clients(); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += clients() {
				job(i)
			}
		}(k)
	}
	wg.Wait()
}

// sessionOut is one wire session's outcome inside a fan-out.
type sessionOut struct {
	sec float64
	st  wireStats
	res *client.ResultResponse
	err error
}

func (s *serveWL) run(traced bool) (*runOut, error) {
	outs := make([]sessionOut, len(s.specs))
	alloc := totalAlloc()
	fanOut(len(s.specs), func(i int) {
		o := &outs[i]
		if traced {
			o.st.trials = []trial{}
		}
		start := time.Now()
		o.res, o.err = s.wireSession(s.specs[i], &o.st)
		o.sec = time.Since(start).Seconds()
	})
	alloc = totalAlloc() - alloc
	// The references are computed once, after the first timed pass.
	if s.refs == nil {
		for _, sp := range s.specs {
			ref, err := s.reference(sp)
			if err != nil {
				return nil, err
			}
			s.refs = append(s.refs, ref)
		}
	}
	out := newRunOut()
	out.alloc = alloc
	for i, o := range outs {
		out.attempted += o.st.requests
		if o.err != nil {
			out.failed++
			out.check(false, "serve session %d: %v", i, o.err)
			continue
		}
		out.check(sameResult(o.res, s.refs[i]), "serve session %d (%s on %s): wire result differs from in-process Drive", i, s.specs[i].tuner, s.specs[i].space)
		kind := s.specs[i].tuner + "/" + s.specs[i].space
		out.jobs.add(kind, o.sec)
		out.steps.add(kind, o.st.rtMS...)
		out.evals += len(o.st.rtMS)
		ref := s.refs[i]
		out.bestRatio = append(out.bestRatio, ref.BestSeconds/s.seconds(s.specs[i], s.spaces[s.specs[i].space].Default()))
		out.simCost = append(out.simCost, o.res.Cost)
		wire := *o.res
		wire.ID = ""
		d, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		out.digests = append(out.digests, string(d))
		if traced {
			sp := s.specs[i]
			out.logs = append(out.logs, sessionLog{space: s.spaces[sp.space], backend: sp.space, workload: s.workloads[sp.space], tuner: sp.tuner,
				seed: sp.seed, trials: o.st.trials, res: ref})
		}
	}
	return out, nil
}
