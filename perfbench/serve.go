package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serveRoundJobs is the length of the seeded job stream one serve-mix round
// sends to a fresh service. It is a synthetic choice, as is the stream's
// mix (jobStream): no record of real service traffic exists. 80 jobs are
// four blocks of the mix and about a second and a half of work per round
// on a 2-vCPU host, long enough that repeats and overlaps find earlier
// cells in the store.
const serveRoundJobs = 80

// serveClients and serveWorkers are the closed loop's client count and the
// service's worker pool size.
const (
	serveClients = 2
	serveWorkers = 2
)

// jobResult is one job's client-side outcome.
type jobResult struct {
	status    int
	err       error
	leader    bool
	key       string
	ttfb, lat time.Duration
	body      []byte // the final ndjson line: the result document
}

// ok reports whether the job was answered with a result document.
func (j jobResult) ok() bool {
	return j.err == nil && j.status == http.StatusOK && isResult(j.body)
}

// roundResult is one serve-mix round: a fresh service with an empty store
// and corpus directory, the seeded job stream sent through a closed loop.
type roundResult struct {
	round           int
	setup, wall     time.Duration
	peakMB, allocMB float64
	jobs            []jobResult // each job's answer (after its retry, if any)
	failedTries     []jobResult // attempts that failed
	retried         []int       // jobs sent a second time
	stats           serve.StatsSnapshot
	metricsz        string
	storeLoadNs     float64
	storeSaveNs     float64
	gc0, gc1        gcSample // runtime GC readings around the closed loop
}

// serveMix runs rounds of seeded job streams until the timed work reaches
// the requested seconds. The traced run alternates untraced and
// traced rounds; a traced round records a span per job and scrapes
// /metricsz.
func serveMix(o *outcome, opt options) error {
	o.host.SplitByProgs = map[string]int{}
	for _, n := range []int{1, 2} {
		_, per := split(n)
		o.host.SplitByProgs[strconv.Itoa(n)] = per
	}
	// The run's one-off set-up: the corpus every round's service reads.
	corpusDir := filepath.Join(opt.work, "serve-corpus")
	var build float64
	var files int
	var err error
	if opt.trace {
		sid := o.rec.Start(0, "setup")
		build = timeSpan(o.rec, sid, "corpus-build", 0, func() { files, err = serveCorpus(corpusDir) })
		o.rec.End(sid, 0)
	} else {
		t0 := time.Now()
		files, err = serveCorpus(corpusDir)
		build = time.Since(t0).Seconds()
	}
	if err != nil {
		return err
	}
	var rounds, traced []*roundResult
	var timed time.Duration
	for i := 0; timed.Seconds() < opt.seconds || (opt.trace && len(traced) == 0); i++ {
		var rec *Recorder
		if opt.trace && i%2 == 1 {
			rec = o.rec
		}
		rr, err := serveRound(opt, i, corpusDir, rec)
		if err != nil {
			return err
		}
		timed += rr.wall
		if rec != nil {
			traced = append(traced, rr)
		} else {
			rounds = append(rounds, rr)
		}
	}

	// Operations: every attempt, a failed one (an error answer) retried
	// once. Output checks: every repeat of a job byte-identical to its first
	// answer, and /statsz's totals equal to what the client sent and saw.
	firstBody := map[string][]byte{}
	for _, rr := range append(append([]*roundResult(nil), rounds...), traced...) {
		ri := rr.round
		for _, j := range rr.failedTries {
			o.opFailed("serve-mix round %d: job %.12s: status %d, err %v, answer %.160s",
				ri, j.key, j.status, j.err, bytes.TrimSpace(j.body))
		}
		bad := len(rr.failedTries)
		for _, j := range rr.jobs {
			if !j.ok() {
				continue // failed twice: counted above, no answer to check
			}
			if prev, seen := firstBody[j.key]; seen {
				o.check(bytes.Equal(prev, j.body), "serve-mix round %d: job %.12s: answer differs from its first answer", ri, j.key)
			} else {
				firstBody[j.key] = j.body
			}
		}
		o.ops(len(rr.jobs)+bad, bad)
		sent := int64(len(rr.jobs) + len(rr.retried))
		st := rr.stats
		o.check(st.JobsReceived == sent && st.FlightsLed+st.FlightsShared == sent && st.JobsRejected == 0 &&
			st.JobsFailed == int64(len(rr.failedTries)),
			"serve-mix round %d: /statsz received %d, led+shared %d, rejected %d, failed %d; client sent %d, saw %d fail",
			ri, st.JobsReceived, st.FlightsLed+st.FlightsShared, st.JobsRejected, st.JobsFailed, sent, len(rr.failedTries))
	}

	// Every job found its corpus among those set-up built: a job whose
	// corpus key set-up missed would add a file.
	after, err := os.ReadDir(corpusDir)
	o.check(err == nil && len(after) == files,
		"serve-mix: the corpus directory holds %d entries after %d rounds, %d after set-up (err %v): a job wrote a corpus",
		len(after), len(rounds)+len(traced), files, err)

	if opt.trace {
		o.set("trace.corpus_build_s", build)
		return serveLayers(o, rounds, traced)
	}
	var setups, walls, lat, first, peak, alloc, rate []float64
	jobs := 0
	for _, rr := range rounds {
		setups = append(setups, rr.setup.Seconds())
		walls = append(walls, rr.wall.Seconds())
		peak = append(peak, rr.peakMB)
		alloc = append(alloc, rr.allocMB)
		rate = append(rate, float64(rr.stats.CellsSimulated)*serveInsns/1e6/rr.wall.Seconds())
		for _, j := range rr.jobs {
			lat = append(lat, j.lat.Seconds()*1e3)
			first = append(first, j.ttfb.Seconds())
		}
		jobs += len(rr.jobs)
	}
	tl := tail(lat)
	o.set("setup_s", build+median(setups))
	o.notes["setup_s"] = fmt.Sprintf("corpus build %.3g s + median round set-up %.3g s", build, median(setups))
	o.set("wall_s", median(walls))
	o.set("mstep_per_s", median(rate))
	o.set("first_row_s", median(first))
	o.set("peak_rss_mb", median(peak))
	o.set("alloc_mb", median(alloc))
	o.set("jobs_per_s", float64(jobs)/sum(walls))
	o.set("job_p50_ms", median(lat))
	o.set("job_tail_ms", tl.Value)
	o.notes["job_tail_ms"] = fmt.Sprintf("p%g of %d samples, %d beyond", tl.Percentile, tl.N, tl.Beyond)
	o.notes["job_p50_ms"] = "deciles " + deciles(lat)
	o.notes["wall_s"] = fmt.Sprintf("median of %d rounds of %d jobs", len(walls), serveRoundJobs)
	return nil
}

// isResult reports whether an ndjson line is a result document (not a
// progress or error event).
func isResult(line []byte) bool {
	var doc struct {
		Schema string `json:"schema"`
	}
	return json.Unmarshal(line, &doc) == nil && doc.Schema == serve.ResultSchema
}

// serveCorpus builds, under dir, the trace corpus of every program set a
// serve-mix job can name: each built-in program alone and each pair, at
// serveInsns, keyed as the service keys them (serve.CompileJob, then
// experiments.CorpusPath). Every round's service shares the directory, so
// its jobs decode their traces from the corpus and write none.
//
// The corpus is warm because a long-running service's is: its content key
// ignores specs and caches, and the built-in programs are fixed, so after
// the first job over each program set every later one hits. It also keeps
// the timed loop clear of a known defect: trace.CreateCorpus writes through
// the fixed temp name path+".tmp", so two concurrent jobs building the same
// corpus race and one fails its rename (README.md, "Known defect").
func serveCorpus(dir string) (files int, err error) {
	names := programNames()
	sort.Strings(names)
	var sets [][]string
	for i, a := range names {
		sets = append(sets, []string{a})
		for _, b := range names[i+1:] {
			sets = append(sets, []string{a, b})
		}
	}
	spec := arch.Names()[0]
	s, _ := arch.Lookup(spec)
	arm := experiments.Arm{Name: spec, Spec: s, Caches: experiments.PaperCaches()[:1]}
	for _, progs := range sets {
		cj, err := serve.CompileJob(serve.Job{Schema: serve.JobSchema, Insns: serveInsns, Programs: progs,
			Grid: experiments.Grid{Name: "corpus", Arms: []experiments.Arm{arm}}}, serve.Limits{})
		if err != nil {
			return 0, err
		}
		r := experiments.NewRunner(cj.Cfg)
		_, err = r.UseCorpus(experiments.CorpusPath(dir, cj.Cfg))
		if cerr := r.CloseCorpus(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
	}
	return len(sets), nil
}

// serveRound runs one round: set-up (job stream, store, service, listener),
// the closed loop, then the /statsz (and, traced, /metricsz) scrape and an
// orderly shutdown. The service reads its traces from the shared corpus
// under corpusDir.
func serveRound(opt options, round int, corpusDir string, rec *Recorder) (*roundResult, error) {
	rr := &roundResult{round: round}
	start := time.Now()
	// Each round of a run sends another stream, so a run's latencies
	// sample several streams rather than one stream several times.
	jobs := jobStream(subSeed(opt.seed, round), serveRoundJobs)
	bodies := make([][]byte, len(jobs))
	for i, j := range jobs {
		b, err := json.Marshal(j)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	dir := filepath.Join(opt.work, fmt.Sprintf("serve-%d", round))
	defer os.RemoveAll(dir)
	store, err := experiments.OpenStore(filepath.Join(dir, "cells"))
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Store: store, CorpusDir: corpusDir, Workers: serveWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if herr := hs.Shutdown(ctx); err == nil {
			err = herr
		}
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	if _, err := get(client, base+"/healthz"); err != nil {
		stop()
		return nil, err
	}
	rr.setup = time.Since(start)

	// The closed loop: each client sends its next job when the previous one
	// is answered; the clients share one cursor into the stream.
	var parent int
	if rec != nil {
		parent = rec.Start(0, "round")
	}
	mem := beginMem()
	rr.gc0 = readGC()
	rr.jobs = make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	loop := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				var id int
				if rec != nil {
					id = rec.Start(parent, "job")
				}
				jr := postJob(client, base, bodies[i])
				if !jr.ok() {
					// A caller retries a job the service failed; the failed
					// attempt stays counted, and its time stays in the job's.
					retry := postJob(client, base, bodies[i])
					retry.ttfb += jr.lat
					retry.lat += jr.lat
					mu.Lock()
					rr.failedTries = append(rr.failedTries, jr)
					rr.retried = append(rr.retried, i)
					if !retry.ok() {
						rr.failedTries = append(rr.failedTries, retry)
					}
					mu.Unlock()
					jr = retry
				}
				rr.jobs[i] = jr
				if rec != nil {
					rec.End(id, 1)
				}
			}
		}()
	}
	wg.Wait()
	rr.wall = time.Since(loop)
	rr.gc1 = readGC()
	rr.peakMB, rr.allocMB = mem.end()
	if rec != nil {
		rec.End(parent, int64(len(jobs)))
	}

	st, err := get(client, base+"/statsz")
	if err == nil {
		err = json.Unmarshal(st, &rr.stats)
	}
	if err == nil && rec != nil {
		var mz []byte
		mz, err = get(client, base+"/metricsz")
		rr.metricsz = string(mz)
		if err == nil {
			rr.storeLoadNs, rr.storeSaveNs, err = storeProbe(store, jobs, filepath.Join(dir, "probe-cells"))
		}
	}
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return rr, nil
}

// postJob sends one job as a streamed request and reads its ndjson answer:
// the time to the first line (a progress event, or the result itself) and
// to the final result line.
func postJob(client *http.Client, base string, body []byte) jobResult {
	start := time.Now()
	resp, err := client.Post(base+"/v1/jobs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobResult{err: err}
	}
	defer resp.Body.Close()
	jr := jobResult{status: resp.StatusCode, key: resp.Header.Get("X-NLS-Job"),
		leader: resp.Header.Get("X-NLS-Flight") == "leader"}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if jr.ttfb == 0 {
				jr.ttfb = time.Since(start)
			}
			jr.body = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			jr.err = err
			break
		}
	}
	jr.lat = time.Since(start)
	return jr
}

// get fetches a URL and returns its body, failing on a non-200 status.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// storeProbe times Store.Load of every distinct cell the stream touched
// (all present by now) and Store.Save of each loaded row into a second
// store, per operation.
func storeProbe(store *experiments.Store, jobs []serve.Job, dir string) (loadNs, saveNs float64, err error) {
	out, err := experiments.OpenStore(dir)
	if err != nil {
		return 0, 0, err
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		cj, err := serve.CompileJob(j, serve.Limits{})
		if err != nil {
			return 0, 0, err
		}
		for _, c := range cj.Grid.Cells(cj.Cfg.Programs) {
			keys[c.Key(cj.Cfg)] = true
		}
	}
	var load, save time.Duration
	for k := range keys {
		var row experiments.Row
		t0 := time.Now()
		ok, err := store.Load(k, &row)
		load += time.Since(t0)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("store probe: cell %s not loadable (err %v)", k[:12], err)
		}
		t0 = time.Now()
		if err := out.Save(k, row); err != nil {
			return 0, 0, err
		}
		save += time.Since(t0)
	}
	n := float64(len(keys))
	return float64(load.Nanoseconds()) / n, float64(save.Nanoseconds()) / n, nil
}

// serveLayers sets serve-mix's per-layer metrics from the traced rounds'
// /statsz and /metricsz scrapes and job spans, plus the isolated probes on
// the built-in gcc-like trace at the jobs' budget.
func serveLayers(o *outcome, rounds, traced []*roundResult) error {
	var iters []map[string]float64
	var qBounds []float64
	var qCum []uint64
	for _, rr := range traced {
		st := rr.stats
		m := map[string]float64{
			"experiments.cells_simulated": float64(st.CellsSimulated),
			"experiments.cells_loaded":    float64(st.CellsLoaded),
			"experiments.store_hit_ratio": st.StoreHitRate,
			"experiments.store_load_ns":   rr.storeLoadNs,
			"experiments.store_save_ns":   rr.storeSaveNs,
			"serve.flight_share_ratio":    st.FlightShareRate,
			"serve.store_hit_ratio":       st.StoreHitRate,
			"serve.rejected":              float64(st.JobsRejected),
		}
		for _, s := range executorStages {
			m["experiments.stage_sum_s."+s] = promValue(rr.metricsz, fmt.Sprintf(`nls_executor_stage_seconds_sum{stage="%s"}`, s))
		}
		b, c := promHist(rr.metricsz, "nls_queue_wait_seconds")
		if qBounds == nil {
			qBounds, qCum = b, make([]uint64, len(c))
		}
		for i := range c {
			qCum[i] += c[i]
		}
		// nls_job_seconds is each flight's executor wall time, queue wait
		// excluded; a leader's latency beyond it is the service's overhead
		// (queueing, HTTP, JSON).
		execSum := promValue(rr.metricsz, "nls_job_seconds_sum")
		execN := promValue(rr.metricsz, "nls_job_seconds_count")
		var leaderLat []float64
		for _, j := range rr.jobs {
			if j.leader {
				leaderLat = append(leaderLat, j.lat.Seconds())
			}
		}
		m["serve.overhead_ms"] = (ratioOr0(sum(leaderLat), float64(len(leaderLat))) - ratioOr0(execSum, execN)) * 1e3
		// The service's lanes are its workers; the layer time it explains
		// is the executor's time per flight.
		m["closure.unexplained_share"] = 1 - ratioOr0(execSum, rr.wall.Seconds()*serveWorkers)
		m["runtime.gc_cycles"], m["runtime.gc_cpu_share"] = gcDelta(rr.gc0, rr.gc1)
		iters = append(iters, m)
	}
	medianLayers(o, iters)
	p50 := histQuantile(0.5, qBounds, qCum)
	tv, tp := histTail(qBounds, qCum)
	o.set("serve.queue_wait_ms.p50", p50*1e3)
	o.set("serve.queue_wait_ms.tail", tv*1e3)
	o.notes["serve.queue_wait_ms.tail"] = fmt.Sprintf("p%g of %d samples", tp, total(qCum))
	var tw, uw []float64
	for _, rr := range traced {
		tw = append(tw, rr.wall.Seconds())
	}
	for _, rr := range rounds {
		uw = append(uw, rr.wall.Seconds())
	}
	o.set("closure.tracing_overhead_share", ratioOr0(median(tw), median(uw))-1)

	spec, _ := workload.ByName("gcc")
	t, err := spec.Trace(serveInsns)
	if err != nil {
		return err
	}
	return probeLayers(o, o.rec, 0, t)
}

func total(cum []uint64) uint64 {
	if len(cum) == 0 {
		return 0
	}
	return cum[len(cum)-1]
}

// promValue returns the value of the exposition line starting with series
// (name plus labels), or 0 when absent.
func promValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// promHist returns an unlabeled histogram's bucket bounds and cumulative
// counts from the exposition text.
func promHist(text, name string) (bounds []float64, cum []uint64) {
	prefix := name + `_bucket{le="`
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		b, err := strconv.ParseFloat(le, 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(count), 10, 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, b)
		cum = append(cum, n)
	}
	return bounds, cum
}
