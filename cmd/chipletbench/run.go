package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// sizes scales a run: the full benchmark or the -quick toy run.
type sizes struct {
	boots      int // daemon boots per run, half before the window and half after; setup_s is their median
	solveGrid  int // single solves (solve, mixed)
	sweepGrid  int // solve sweeps (sweep, mixed)
	tcoGrids   []int
	searchGrid int
	coldStarts int // starts of cold and warm searches
	// scalarStarts is the starts of scalar searches.
	scalarStarts int
	prefix       map[string]int
}

// interactivePerS is the mixed workload's open-loop rate. An interactive
// solve takes about 170 ms behind the background batches on an idle 2-CPU
// host. At 4 per second, with two other processes competing for the host
// half the time, the lane's backlog put its median anywhere from 210 to
// 530 ms over ten runs; at 2 per second the lane fills only at a threefold
// slowdown, and a 25 s window holds 50 solves, enough for a p80 with ten
// beyond it.
const interactivePerS = 2

var fullSize = sizes{
	boots: 8, solveGrid: 64, sweepGrid: 32, tcoGrids: []int{32, 28, 36},
	searchGrid: 16, coldStarts: 8, scalarStarts: 4,
	prefix: map[string]int{"solve": 64, "search": 26, "sweep": 26, "interactive": 40, "background": 10},
}

var quickSize = sizes{
	boots: 1, solveGrid: 32, sweepGrid: 16, tcoGrids: []int{16, 12},
	searchGrid: 8, coldStarts: 2, scalarStarts: 2,
	prefix: map[string]int{"solve": 8, "search": 13, "sweep": 3, "interactive": 3, "background": 3},
}

// lane is one request stream of a workload. Its first prefix jobs always
// run, even past the deadline; their answers make the digest, and the
// counts are taken over them, so both repeat exactly for one seed.
type lane struct {
	name       string
	next       func(i int) job
	prefix     int
	countItems bool // whether the lane's answers count toward items_per_s
}

// workload is one traffic mix; its run drives the daemon until deadline.
type workload struct {
	name string
	run  func(r *runner, seed int64, sz sizes, deadline time.Time)
}

// workloads; the package doc gives the reason for each.
var workloads = []workload{
	{"solve", func(r *runner, seed int64, sz sizes, deadline time.Time) {
		l := &lane{name: "solve", next: solveStream(seed, sz), prefix: sz.prefix["solve"], countItems: true}
		r.closedLoop(l, 2, deadline, true)
	}},
	{"search", func(r *runner, seed int64, sz sizes, deadline time.Time) {
		l := &lane{name: "search", next: searchStream(seed, sz), prefix: sz.prefix["search"], countItems: true}
		r.closedLoop(l, 1, deadline, true)
	}},
	{"sweep", func(r *runner, seed int64, sz sizes, deadline time.Time) {
		l := &lane{name: "sweep", next: sweepStream(seed, sz), prefix: sz.prefix["sweep"], countItems: true}
		r.closedLoop(l, 1, deadline, true)
	}},
	{"mixed", func(r *runner, seed int64, sz sizes, deadline time.Time) {
		interactive := &lane{name: "interactive", next: interactiveStream(2*seed, sz), prefix: sz.prefix["interactive"]}
		background := &lane{name: "background", next: backgroundStream(2*seed+1, sz), prefix: sz.prefix["background"], countItems: true}
		start := time.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.openLoop(interactive, interactivePerS, start, deadline)
		}()
		r.closedLoop(background, 1, deadline, false)
		wg.Wait()
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// maxFailures stops a run early: past it the daemon is down or broken, and
// the run fails anyway.
const maxFailures = 20

// latSample is one request's client latency.
type latSample struct {
	ms     float64
	traced bool
}

// tally collects one run's outcomes; lanes record into it concurrently.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // the first few failure messages
	lat       map[string][]latSample
	items     int
	lags      []float64 // open-loop send lag (ms)
	answers   map[string]string
	refs      []refSolve
	searches  []searchCount
	batch     batchResp // prefix totals
	tr        traceAcc
}

func newTally() *tally {
	return &tally{lat: map[string][]latSample{}, answers: map[string]string{}}
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, msg)
	}
}

func (t *tally) failedCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// runner drives one daemon.
type runner struct {
	ctx        context.Context
	c          *client
	traced     bool // traced run: even-numbered jobs carry a trace
	t          *tally
	prefixSnap promSnap // /metrics once the prefix is done; nil for mixed
}

// do sends one job and records it, timing it from t0: its send time, or
// the time an open-loop request was due.
func (r *runner) do(l *lane, idx int, jb job, t0 time.Time) {
	id := fmt.Sprintf("%s-%d", l.name, idx)
	traced := r.traced && idx%2 == 0
	path := jb.path
	if traced && path != batchPath {
		path += "?trace=1" // batch answers carry no trace; see below
	}
	status, data, done, err := r.c.post(r.ctx, path, id, jb.body)
	ms := float64(done.Sub(t0)) / float64(time.Millisecond)
	var a answer
	switch {
	case err != nil:
		a.problems = []string{err.Error()}
	case status != 200:
		a.problems = []string{fmt.Sprintf("status %d: %.200s", status, data)}
	default:
		a = parseAnswer(jb, idx, data, idx < l.prefix)
		if traced && jb.path == batchPath {
			if a.trace, err = r.c.fetchTrace(r.ctx, id); err != nil {
				a.problems = append(a.problems, err.Error())
			}
		}
	}
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if traced && len(a.problems) == 0 {
		if a.trace == nil {
			a.problems = []string{"traced request answered without a trace"}
		} else if err := t.tr.add(a.trace, ms, jb.path == batchPath); err != nil {
			a.problems = []string{err.Error()}
		}
	}
	if len(a.problems) > 0 {
		t.fail(fmt.Sprintf("%s %s: %v", l.name, id, a.problems))
		return
	}
	t.lat[a.class] = append(t.lat[a.class], latSample{ms, traced})
	if l.countItems {
		t.items += a.items
	}
	if idx >= l.prefix {
		return
	}
	t.answers[fmt.Sprintf("%s/%03d", l.name, idx)] = a.line
	t.refs = append(t.refs, a.refs...)
	if a.search != nil {
		t.searches = append(t.searches, *a.search)
	}
	if b := a.batch; b != nil {
		t.batch.Total += b.Total
		t.batch.UniqueKeys += b.UniqueKeys
		t.batch.Coalesced += b.Coalesced
		t.batch.CacheHits += b.CacheHits
	}
}

// closedLoop runs clients goroutines, each sending the lane's next job as
// soon as its previous one is answered, until the deadline has passed and
// the prefix has been sent. With snapPrefix it scrapes /metrics once every
// prefix job is answered and before any later job is sent, so the counts
// cover exactly the prefix.
func (r *runner) closedLoop(l *lane, clients int, deadline time.Time, snapPrefix bool) {
	var (
		mu       sync.Mutex
		next     int
		prefixWG sync.WaitGroup
		snapOnce sync.Once // later callers block until the scrape is done
	)
	snap := func() {
		snapOnce.Do(func() {
			prefixWG.Wait()
			if snapPrefix {
				if s, err := r.c.scrape(r.ctx); err == nil {
					r.prefixSnap = s
				}
			}
		})
	}
	prefixWG.Add(l.prefix)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				idx := next
				if idx >= l.prefix && (!time.Now().Before(deadline) || r.t.failedCount() >= maxFailures) {
					mu.Unlock()
					return
				}
				next++
				jb := l.next(idx) // under mu: the stream is generated in order
				mu.Unlock()
				if idx >= l.prefix {
					snap()
				}
				r.do(l, idx, jb, time.Now())
				if idx < l.prefix {
					prefixWG.Done()
				}
			}
		}()
	}
	wg.Wait()
	snap()
}

// openLoop sends the lane's jobs on a fixed schedule, rate per second,
// from one goroutine and so over one connection, each timed from when it
// was due. A request still running when the next falls due delays that
// one: the delay is recorded as send lag and counts in its latency.
func (r *runner) openLoop(l *lane, rate float64, start, deadline time.Time) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if k >= l.prefix && (!due.Before(deadline) || r.t.failedCount() >= maxFailures) {
			return
		}
		jb := l.next(k)
		select {
		case <-time.After(time.Until(due)):
		case <-r.ctx.Done():
			return
		}
		lag := float64(time.Since(due)) / float64(time.Millisecond)
		r.t.mu.Lock()
		r.t.lags = append(r.t.lags, lag)
		r.t.mu.Unlock()
		r.do(l, k, jb, due)
	}
}

// result is one run's outcome.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	digest    string
	revision  string
	window    time.Duration
}

func (res *result) correct() bool { return res.failed == 0 }

// runOnce boots daemons, drives workload w on the last one for seconds,
// checks the answers, boots the rest of sz.boots, and computes every
// metric. The boots are split around the window because a shared host's
// set-up times follow its neighbours' load, which holds for seconds: boots
// in a row all see the same load, boots half a minute apart need not.
func runOnce(bin string, w workload, seed int64, seconds float64, traced bool, sz sizes) (*result, error) {
	var setups []float64
	boot := func() (*daemon, error) {
		d, setup, err := startDaemon(bin)
		if err == nil {
			setups = append(setups, setup.Seconds())
		}
		return d, err
	}
	var d *daemon
	for b := 0; b < (sz.boots+1)/2; b++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = boot(); err != nil {
			return nil, err
		}
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+150*time.Second)
	defer cancel()

	start, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, c: c, traced: traced, t: newTally()}
	t0 := time.Now()
	w.run(r, seed, sz, t0.Add(time.Duration(seconds*float64(time.Second))))
	window := time.Since(t0)
	end, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if r.prefixSnap == nil {
		r.prefixSnap = end
	}
	r.referenceChecks(seed, sz)
	c.close()
	d.stop()
	for b := 0; b < sz.boots/2; b++ {
		dd, err := boot()
		if err != nil {
			return nil, err
		}
		dd.stop()
	}

	t := r.t
	return &result{
		workload: w.name, seed: seed, traced: traced,
		attempted: t.attempted, failed: t.failed, failures: t.failures,
		metrics:  t.metrics(setups, rss, window, start, r.prefixSnap),
		digest:   digestOf(t.answers),
		revision: d.revision,
		window:   window,
	}, nil
}

// referenceChecks recomputes the first refSolves served solves of the
// prefix with org.ReferenceSimulate. A workload that served fewer single
// solves (search) is topped up with untimed check solves after the window.
func (r *runner) referenceChecks(seed int64, sz sizes) {
	t := r.t
	refs := firstRefs(t.refs, refSolves)
	g := newSolveGen(rand.New(rand.NewSource(-seed)), sz.sweepGrid)
	for k := 0; len(refs) < refSolves; k++ {
		jb := solveJob(g.fresh())
		status, data, _, err := r.c.post(r.ctx, solvePath, fmt.Sprintf("check-%d", k), jb.body)
		t.attempted++
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %.200s", status, data)
		}
		var a answer
		if err == nil {
			if a = parseAnswer(jb, k, data, true); len(a.problems) > 0 {
				err = fmt.Errorf("%v", a.problems)
			}
		}
		if err != nil {
			t.fail("check solve: " + err.Error())
			break
		}
		refs = append(refs, a.refs...) // none if it hit the cache
	}
	for _, ref := range refs {
		t.attempted++
		if err := ref.check(); err != nil {
			t.fail("reference check: " + err.Error())
		}
	}
}
