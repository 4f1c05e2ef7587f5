package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	libra "repro"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/serve"
)

// Service settings: two requests execute at once, each simulation runs on
// the serial engine, and a run keeps at most two client connections.
const (
	serveMaxInFlight = 2
	serveMaxQueue    = 2
	serveConns       = 2
	// serveSLO is the latency limit a request must meet to count as ok.
	serveSLO = 500 * time.Millisecond
)

// liveServer is one serve.Server listening on a loopback port.
type liveServer struct {
	srv    *serve.Server
	httpS  *http.Server // non-nil when the handler is wrapped for tracing
	url    string
	served chan error
}

// startServer starts a server on dir's result store. A non-nil wrap
// replaces Server.Serve with an http.Server around wrap(Server.Handler()),
// so the traced run can time every ServeHTTP call.
func startServer(ctx context.Context, dir string, wrap func(http.Handler) http.Handler) (*liveServer, error) {
	srv, err := serve.NewServer(ctx, serve.Config{
		ResultDir:   dir,
		SimWorkers:  1,
		MaxInFlight: serveMaxInFlight,
		MaxQueue:    serveMaxQueue,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, url: "http://" + ln.Addr().String() + "/v1/run", served: make(chan error, 1)}
	if wrap != nil {
		ls.httpS = &http.Server{Handler: wrap(srv.Handler())}
		go func() { ls.served <- ls.httpS.Serve(ln) }()
	} else {
		go func() { ls.served <- srv.Serve(ln) }()
	}
	return ls, nil
}

// stop drains the server and waits for its accept loop to end.
func (s *liveServer) stop(ctx context.Context) error {
	var err error
	if s.httpS != nil {
		err = s.httpS.Shutdown(ctx)
	} else {
		err = s.srv.Shutdown(ctx)
	}
	serr := <-s.served
	if errors.Is(serr, http.ErrServerClosed) {
		serr = nil
	}
	return errors.Join(err, serr)
}

// requestBody is the /v1/run body for k.
func requestBody(k serveKey) []byte {
	w := serveWarmup
	body, err := json.Marshal(serve.RunRequest{Game: k.Game, Config: k.config(), Frames: serveFrames, Warmup: &w})
	if err != nil {
		panic(err) // the request type always marshals
	}
	return body
}

// answer is the outcome of one /v1/run call.
type answer struct {
	ok      bool // 200 with a well-formed body
	correct bool // every frame hash matches its reference
	frames  []libra.FrameResult
}

// call posts one request and checks the body: it must decode, hold
// serveFrames frames, and carry the reference hashes.
func call(ctx context.Context, client *http.Client, url string, k serveKey, refs *refTable, id int) (answer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(requestBody(k)))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, fmt.Sprint(id))
	resp, err := client.Do(req)
	if err != nil {
		return answer{}, nil // a transport failure is a failed request
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return answer{}, nil
	}
	var gr experiments.GameRun
	if err := json.Unmarshal(body, &gr); err != nil || gr.Game != k.Game || len(gr.Frames) != serveFrames {
		return answer{}, nil
	}
	a := answer{ok: true, correct: true, frames: gr.Frames}
	for i, f := range gr.Frames {
		match, err := refs.check(k.Game, serveScreen, i, f.FrameHash)
		if err != nil {
			return answer{}, err
		}
		if !match || f.Frame != i {
			a.correct = false
		}
	}
	return a, nil
}

// requestIDHeader carries the benchmark's request index, so the traced
// handler's spans can be matched to client-side latencies.
const requestIDHeader = "X-Perfbench-Request"

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
}

// prepopulate sends every key through the server, serveConns at a time,
// and returns how many answers failed their checks.
func prepopulate(ctx context.Context, s *liveServer, keys []serveKey, refs *refTable) (attempted, failed int, err error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	var firstErr error
	next := make(chan serveKey)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				a, err := call(ctx, client, s.url, k, refs, -1)
				mu.Lock()
				attempted++
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if !a.ok || !a.correct {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return attempted, failed, firstErr
}

// handlerSpans records the wall time of every ServeHTTP call by request id.
type handlerSpans struct {
	mu   sync.Mutex
	byID map[string]time.Duration
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		h.mu.Lock()
		h.byID[r.Header.Get(requestIDHeader)] = d
		h.mu.Unlock()
	})
}

// get returns the handler time recorded for request id.
func (h *handlerSpans) get(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.byID[id]
	return d, ok
}

// served is one measured request's record.
type served struct {
	key        serveKey
	due        time.Duration // relative to the phase start
	sent, done time.Duration
	ans        answer
	class      string // "miss", "disk" or "mem"
}

// runServeMix runs the serve-mix workload.
func runServeMix(ctx context.Context, o options, refs *refTable) (*report, error) {
	in, err := serveInputsFor(o.seed, o.seconds, refs)
	if err != nil {
		return nil, err
	}
	rep := &report{
		result:         result{Metrics: map[string]metric{}},
		samples:        map[string]int{},
		tailPercentile: 0.95,
		extra:          map[string]float64{},
	}

	// Set-up, repeated: a fresh store, a server that pre-populates the
	// popular quarter, then a restart on the same store so the measured
	// phase starts with an empty in-memory memo. The last repetition's
	// server is measured.
	var spans *handlerSpans
	var wrap func(http.Handler) http.Handler
	if o.trace {
		spans = &handlerSpans{byID: map[string]time.Duration{}}
		wrap = spans.wrap
	}
	var setups []float64
	var live *liveServer
	var storeDir string
	for r := 0; r < setupRepeats; r++ {
		if live != nil {
			if err := live.stop(ctx); err != nil {
				return nil, err
			}
			os.RemoveAll(storeDir)
		}
		if storeDir, err = scratchDir("serve-store-"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		warm, err := startServer(ctx, storeDir, nil)
		if err != nil {
			return nil, err
		}
		att, bad, perr := prepopulate(ctx, warm, in.prepop, refs)
		if err := warm.stop(ctx); err != nil || perr != nil {
			return nil, errors.Join(err, perr)
		}
		rep.Attempted += att
		rep.Failed += bad
		if live, err = startServer(ctx, storeDir, wrap); err != nil {
			return nil, err
		}
		setups = append(setups, calibratedSeconds(time.Since(t0), calibrationMedian(setupCalRuns)))
	}
	defer os.RemoveAll(storeDir)

	stopProfile, err := startProfile(o.cpuProfile)
	if err != nil {
		return nil, err
	}
	recs, lag, cals, waitMax, err := openLoop(ctx, live, in, refs)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		live.stop(ctx)
		return nil, err
	}
	st := live.srv.StatsSnapshot()
	if err := live.stop(ctx); err != nil {
		return nil, err
	}

	// End-to-end metrics. Latency runs from when a request was due; a
	// failed request counts as infinitely late. Latencies are scaled by
	// the calibration loop the generator ran through the measured phase
	// (see calibrate.go); the SLO applies to the unscaled time.
	scale := 1.0
	if len(cals) > 0 {
		scale = float64(calRef) / median(cals)
	}
	rep.extra["calibration_ms_p50"] = median(cals) / float64(time.Millisecond)
	lat := make([]float64, len(recs))
	var rawLat []float64
	okN, withinSLO := 0, 0
	byClass := map[string][]float64{}
	distinct := map[serveKey][]libra.FrameResult{}
	var first, last time.Duration = math.MaxInt64, 0
	for i, r := range recs {
		rep.Attempted++
		if !r.ans.ok || !r.ans.correct {
			rep.Failed++
			lat[i] = math.Inf(1)
			continue
		}
		okN++
		ms := float64(r.done-r.due) / float64(time.Millisecond)
		lat[i] = ms * scale
		rawLat = append(rawLat, ms)
		if r.done-r.due <= serveSLO {
			withinSLO++
		}
		byClass[r.class] = append(byClass[r.class], ms)
		distinct[r.key] = r.ans.frames
		first = min(first, r.due)
		last = max(last, r.done)
	}
	var cyc, dram, nf float64
	for _, frames := range distinct {
		for _, f := range frames[serveWarmup:] {
			cyc += float64(f.TotalCycles)
			dram += float64(f.DRAMAccesses)
			nf++
		}
	}
	rep.Metrics["latency_ms_p50"] = metric{median(lat), "ms"}
	rep.Metrics["latency_ms_tail"] = metric{percentile(lat, 0.95), "ms"}
	rep.Metrics["throughput_per_s"] = metric{ratio(float64(okN), (last - first).Seconds()), "1/s"}
	rep.Metrics["sim_cycles_per_frame"] = metric{ratio(cyc, nf), "cycles"}
	rep.Metrics["dram_accesses_per_frame"] = metric{ratio(dram, nf), "count"}
	rep.Metrics["ok_ratio"] = metric{ratio(float64(withinSLO), float64(len(recs))), "ratio"}
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.samples["latency_ms_p50"] = len(lat)
	rep.samples["latency_ms_tail"] = len(lat)
	rep.samples["sim_cycles_per_frame"] = int(nf)
	rep.samples["setup_s"] = len(setups)
	for _, c := range []string{"miss", "disk", "mem"} {
		rep.samples["requests_"+c] = len(byClass[c])
		rep.extra["serve."+c+"_ms_p50"] = median(byClass[c])
	}
	rep.extra["loadgen.lag_ms_p95"] = percentile(lag, 0.95)
	rep.extra["req_ms_p50_uncalibrated"] = median(rawLat)
	rep.extra["req_ms_p95_uncalibrated"] = percentile(rawLat, 0.95)

	if !o.trace {
		return rep, nil
	}

	// Per-layer metrics of the service path.
	var handler, transport []float64
	for i, r := range recs {
		if d, ok := spans.get(fmt.Sprint(i)); ok {
			handler = append(handler, float64(d)/float64(time.Millisecond))
			transport = append(transport, float64(r.done-r.sent-d)/float64(time.Millisecond))
		}
	}
	rep.extra["serve.handler_ms_p50"] = median(handler)
	rep.extra["serve.handler_ms_p95"] = percentile(handler, 0.95)
	rep.extra["serve.transport_ms_p50"] = median(transport)
	var hits, puts, corrupt int64
	if st.Store != nil {
		hits, puts, corrupt = st.Store.Hits, st.Store.Puts, st.Store.Corrupt
	}
	memo := float64(okN) - float64(hits) - float64(st.Sims)
	rep.Metrics["serve.admission_waiting_max"] = metric{float64(waitMax), "count"}
	rep.Metrics["serve.rejected"] = metric{float64(st.Admission.Rejected), "count"}
	rep.Metrics["experiments.sims"] = metric{float64(st.Sims), "count"}
	rep.Metrics["experiments.memo_ratio"] = metric{ratio(memo, float64(okN)), "ratio"}
	rep.Metrics["resultstore.hit_ratio"] = metric{ratio(float64(hits), float64(hits+st.Sims)), "ratio"}
	rep.Metrics["resultstore.puts"] = metric{float64(puts), "count"}
	rep.Metrics["resultstore.corrupt"] = metric{float64(corrupt), "count"}
	if err := storeTimings(storeDir, distinct, rep.extra); err != nil {
		return nil, err
	}

	// Frame layers: compose the simulations the measured phase missed on,
	// traced, beside untraced runs of the same frames, within a budget of
	// one measured window.
	rc := newRuntimeCounters()
	_, _, gc0, cpu0 := rc.read()
	ls, err := composeMisses(ctx, recs, o.seconds, rc)
	if err != nil {
		return nil, err
	}
	_, _, gc1, cpu1 := rc.read()
	for name, m := range ls.metrics(ratio(gc1-gc0, cpu1-cpu0)) {
		rep.Metrics[name] = m
	}
	rep.samples["layers"] = ls.frames
	return rep, nil
}

// calEvery is how often the open-loop generator runs the calibration loop
// while it waits for the next request to fall due.
const calEvery = 200 * time.Millisecond

// openLoop sends the requests on their schedule over serveConns
// connections and returns one record per request, the generator's lateness
// against the schedule (ms), the calibration runs it made while idle (ns),
// and the largest admission queue it saw.
func openLoop(ctx context.Context, s *liveServer, in *serveInputs, refs *refTable) ([]served, []float64, []float64, int64, error) {
	reqs := in.requests
	client := newClient()
	defer client.CloseIdleConnections()
	recs := make([]served, len(reqs))
	lag := make([]float64, len(reqs))
	// Sized to the whole schedule, so the generator never blocks and a
	// stalled server shows as latency, not as a late generator.
	queue := make(chan int, len(reqs))
	var waitMax int64
	var mu sync.Mutex // guards the first-answer table and waitMax
	firstDone := map[serveKey]time.Duration{}
	firstClass := map[serveKey]string{}
	prepop := map[serveKey]bool{}
	for _, k := range in.prepop {
		prepop[k] = true
	}
	start := time.Now()
	deadline := start.Add(hardDeadline)
	errs := make(chan error, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := reqs[i]
				mu.Lock()
				waitMax = max(waitMax, s.srv.Admission().Waiting())
				class, seen := firstClass[r.key]
				if !seen {
					class = "miss"
					if prepop[r.key] {
						class = "disk"
					}
					firstClass[r.key] = class
				} else if d, done := firstDone[r.key]; done && d <= time.Since(start) {
					class = "mem"
				}
				mu.Unlock()
				sent := time.Since(start)
				a, err := call(ctx, client, s.url, r.key, refs, i)
				done := time.Since(start)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if _, ok := firstDone[r.key]; !ok {
					firstDone[r.key] = done
				}
				mu.Unlock()
				recs[i] = served{key: r.key, due: r.due, sent: sent, done: done, ans: a, class: class}
			}
		}()
	}
	var genErr error
	var cals []float64
	var lastCal time.Time
	for i, r := range reqs {
		if time.Until(start.Add(r.due)) > 2*calRef && time.Since(lastCal) >= calEvery {
			cals = append(cals, float64(calibrate()))
			lastCal = time.Now()
		}
		if wait := time.Until(start.Add(r.due)); wait > 0 {
			select {
			case <-ctx.Done():
				genErr = ctx.Err()
			case <-time.After(wait):
			}
		}
		if genErr == nil && time.Now().After(deadline) {
			genErr = errDeadline
		}
		if genErr != nil {
			break
		}
		lag[i] = float64(time.Since(start)-r.due) / float64(time.Millisecond)
		queue <- i
	}
	close(queue)
	wg.Wait()
	close(errs)
	if genErr != nil {
		return nil, nil, nil, 0, genErr
	}
	if err := <-errs; err != nil {
		return nil, nil, nil, 0, err
	}
	return recs, lag, cals, waitMax, nil
}

// storeTimings times direct resultstore calls on the run's entries: a Get
// of every distinct answered key from the server's store, and a Put of the
// same frames into a fresh store.
func storeTimings(dir string, answered map[serveKey][]libra.FrameResult, extra map[string]float64) error {
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	putDir, err := scratchDir("put-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	put, err := resultstore.Open(putDir)
	if err != nil {
		return err
	}
	p := experiments.DefaultParams()
	p.Frames, p.Warmup, p.SimWorkers = serveFrames, serveWarmup, 1
	runner := experiments.NewRunner(p)
	runner.SetStore(st)
	var gets, puts []float64
	for _, k := range sortedKeys(answered) {
		req, err := serve.DecodeRunRequest(requestBody(k))
		if err != nil {
			return err
		}
		spec, err := runner.KeySpec(req.Config, k.Game)
		if err != nil {
			return err
		}
		key := spec.Key()
		var frames []libra.FrameResult
		t0 := time.Now()
		hit := st.Get(key, &frames)
		gets = append(gets, float64(time.Since(t0))/float64(time.Millisecond))
		if !hit || len(frames) != len(answered[k]) {
			return fmt.Errorf("store has no entry for answered request %+v", k)
		}
		t0 = time.Now()
		if err := put.Put(key, k.Game, frames); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0))/float64(time.Millisecond))
	}
	extra["resultstore.get_ms_p50"] = median(gets)
	extra["resultstore.put_ms_p50"] = median(puts)
	return nil
}

// sortedKeys returns m's keys in universe order.
func sortedKeys(m map[serveKey][]libra.FrameResult) []serveKey {
	var ks []serveKey
	for _, k := range serveUniverse() {
		if _, ok := m[k]; ok {
			ks = append(ks, k)
		}
	}
	return ks
}

// composeMisses renders the simulations behind the measured phase's misses
// twice, frame by frame: untraced through libra.Run and traced through the
// layer composition, which must reproduce both the run and the served
// answer. It stops after budget seconds.
func composeMisses(ctx context.Context, recs []served, budget float64, rc *runtimeCounters) (*layerStats, error) {
	var ls layerStats
	tr := newTracer()
	begin := time.Now()
	seen := map[serveKey]bool{}
	for _, r := range recs {
		if r.class != "miss" || seen[r.key] || !r.ans.ok {
			continue
		}
		seen[r.key] = true
		if time.Since(begin).Seconds() >= budget {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run, err := libra.NewRun(r.key.config(), r.key.Game)
		if err != nil {
			return nil, err
		}
		comp, err := newComposer(r.key.config(), r.key.Game)
		if err != nil {
			return nil, err
		}
		for i := 0; i < serveFrames; i++ {
			obj0, b0, _, _ := rc.read()
			t0 := time.Now()
			f := run.RenderFrame()
			d := time.Since(t0)
			obj1, b1, _, _ := rc.read()
			c := comp.frame(tr)
			if err := matchComposed(r.key.Game, f, c); err != nil {
				return nil, err
			}
			if want := r.ans.frames[i]; c.hash != want.FrameHash || c.totalCycles != want.TotalCycles {
				return nil, fmt.Errorf("traced composition diverged from the served answer for %+v frame %d", r.key, i)
			}
			ls.addComposed(c)
			ls.addUntraced(d, obj1-obj0, b1-b0)
		}
		ls.addSpans(tr)
	}
	return &ls, nil
}
