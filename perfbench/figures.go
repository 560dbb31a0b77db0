package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fetch"
	"repro/internal/metrics"
	"repro/internal/multiissue"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// figuresInsns is the per-program budget of the figures-cold workload (the
// budget EXPERIMENTS.md is regenerated at).
const figuresInsns = 2_000_000

// iterRun is one timed iteration of figures-cold or long-trace.
type iterRun struct {
	wall, firstRow    time.Duration
	peakMB, allocMB   float64
	steps             int64
	rows              map[string]metrics.Counters // by cell key
	probed            []byte                      // probed figures' data, JSON
	stages            map[string]float64
	simulated, loaded int
	r                 *experiments.Runner
}

// figuresSetupReps is how many times an iteration repeats its set-up to
// time it: one set-up takes microseconds, below what a single reading
// resolves steadily.
const figuresSetupReps = 200

// figuresSetup is the set-up an iteration has: the seeded configuration,
// the figure list and a fresh runner. Programs are built inside the timed
// work (Spec.Trace builds its CFG), as nlstables builds them, so a build
// failure shows as Executor.Run's error.
func figuresSetup(seed uint64) (experiments.Config, []experiments.Figure, *experiments.Runner) {
	cfg := experiments.DefaultConfig(figuresInsns)
	cfg.Programs = seededPrograms(seed, cfg.Programs)
	return cfg, experiments.Figures(), experiments.NewRunner(cfg)
}

// timeFiguresSetup returns the median set-up time over figuresSetupReps
// repetitions, in seconds, timed in batches of ten.
func timeFiguresSetup(seed uint64) float64 {
	var ds []float64
	for b := 0; b < figuresSetupReps/10; b++ {
		start := time.Now()
		for i := 0; i < 10; i++ {
			figuresSetup(seed)
		}
		ds = append(ds, time.Since(start).Seconds()/10)
	}
	return median(ds)
}

// figuresCold regenerates every figure from cold: a fresh runner, no store,
// no corpus, each iteration. The untraced run repeats set-up and iteration
// until the timed work reaches the requested seconds; each iteration draws
// its programs from its own seed (subSeed), so a run's medians span several
// program sets and the seeds of different runs weigh alike. The traced run
// alternates an untraced and a traced iteration over one seed.
func figuresCold(o *outcome, opt options) error {
	lanes, per := split(len(workload.All()))
	o.host.ProgramLanes, o.host.PerProgram = lanes, per

	var setups []float64
	var runs, traced []*iterRun
	var tracedLayers []map[string]float64
	var timed time.Duration
	var cfg experiments.Config
	for i := 0; timed.Seconds() < opt.seconds || (opt.trace && len(traced) == 0); i++ {
		seed := subSeed(opt.seed, i)
		if opt.trace {
			seed = subSeed(opt.seed, i/2)
		}
		setups = append(setups, timeFiguresSetup(seed))
		c, figs, r := figuresSetup(seed)
		cfg = c
		if opt.trace && i%2 == 1 {
			layers := map[string]float64{}
			fr, err := figuresTraced(cfg, figs, o.rec, layers)
			if err != nil {
				return err
			}
			o.ops(len(fr.rows), 0)
			pair := runs[len(runs)-1] // the untraced iteration over the same seed
			o.check(sameRows(pair.rows, fr.rows) && bytes.Equal(pair.probed, fr.probed),
				"figures-cold: traced iteration %d counters differ from the untraced run", i)
			layers["closure.executor_drift_share"] = checkDrift(o, "figures-cold", pair.stages, fr.stages, pair.wall)
			traced = append(traced, fr)
			tracedLayers = append(tracedLayers, layers)
			timed += fr.wall
			continue
		}
		fr, err := figuresOnce(cfg, figs, r)
		if err != nil {
			return err
		}
		o.ops(len(fr.rows), 0)
		if err := figuresSampleCheck(o, cfg, figs, fr, seed); err != nil {
			return err
		}
		fr.r = nil // drop the iteration's traces before the next one is measured
		runs = append(runs, fr)
		timed += fr.wall
	}

	if opt.trace {
		medianLayers(o, tracedLayers)
		flagDrift(o, "figures-cold")
		medianLayers(o, observedLayers(runs))
		o.set("closure.tracing_overhead_share", ratioOr0(median(walls(traced)), median(walls(runs)))-1)
		t, err := cfg.Programs[progIndex(cfg, "gcc-like")].Trace(probeRecords)
		if err != nil {
			return err
		}
		return probeLayers(o, o.rec, 0, t)
	}

	o.set("setup_s", median(setups))
	setE2E(o, runs)
	return nil
}

func walls(rs []*iterRun) []float64 {
	var ws []float64
	for _, r := range rs {
		ws = append(ws, r.wall.Seconds())
	}
	return ws
}

// setE2E sets the end-to-end metrics of an iteration-based workload: one
// iteration (a figure regeneration, a sweep) is one job.
func setE2E(o *outcome, runs []*iterRun) {
	var ms, first, peak, alloc, rate []float64
	for _, r := range runs {
		ms = append(ms, r.wall.Seconds()*1e3)
		first = append(first, r.firstRow.Seconds())
		peak = append(peak, r.peakMB)
		alloc = append(alloc, r.allocMB)
		rate = append(rate, float64(r.steps)/1e6/r.wall.Seconds())
	}
	tl := tail(ms)
	o.set("wall_s", median(ms)/1e3)
	o.set("mstep_per_s", median(rate))
	o.set("first_row_s", median(first))
	o.set("peak_rss_mb", median(peak))
	o.set("alloc_mb", median(alloc))
	o.set("jobs_per_s", float64(len(ms))/(sum(ms)/1e3))
	o.set("job_p50_ms", median(ms))
	o.set("job_tail_ms", tl.Value)
	o.notes["job_tail_ms"] = fmt.Sprintf("p%g of %d samples, %d beyond", tl.Percentile, tl.N, tl.Beyond)
	o.notes["wall_s"] = fmt.Sprintf("median of %d iterations: %.3v ms", len(ms), ms)
	o.notes["first_row_s"] = fmt.Sprintf("%.3v", first)
}

// figuresOnce is one untraced iteration: Executor.Run over every figure,
// then RenderFigure for the probed ones, as nlstables does.
func figuresOnce(cfg experiments.Config, figs []experiments.Figure, r *experiments.Runner) (*iterRun, error) {
	mem := beginMem()
	fr := &iterRun{r: r, stages: map[string]float64{}}
	start := time.Now()
	r.Progress = func(experiments.SweepStats) {
		if fr.firstRow == 0 {
			fr.firstRow = time.Since(start)
		}
	}
	x := &experiments.Executor{R: r, Observer: func(sp experiments.StageSpan) { fr.stages[sp.Stage] += sp.Seconds }}
	rs, err := x.Run(figs...)
	if err != nil {
		return nil, err
	}
	probed := map[string]any{}
	for _, f := range figs {
		if f.Probed == nil {
			continue
		}
		_, data, err := x.RenderFigure(f, rs)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", f.Name, err)
		}
		probed[f.Name] = data
	}
	fr.wall = time.Since(start)
	fr.peakMB, fr.allocMB = mem.end()
	fr.simulated, fr.loaded = rs.Simulated, rs.Loaded
	fr.rows = rowsByKey(cfg, figs, rs)
	if fr.probed, err = json.Marshal(probed); err != nil {
		return nil, err
	}
	fr.steps = int64(rs.Simulated+probedCells(cfg, figs)) * int64(cfg.Insns)
	return fr, nil
}

// rowsByKey maps every grid cell's store key to its counters.
func rowsByKey(cfg experiments.Config, figs []experiments.Figure, rs *experiments.ResultSet) map[string]metrics.Counters {
	out := map[string]metrics.Counters{}
	for _, f := range figs {
		rows := rs.Rows(f.Grid)
		for i, c := range f.Grid.Cells(cfg.Programs) {
			out[c.Key(cfg)] = rows[i].M
		}
	}
	return out
}

// probedReplay is how the traced run replays a probed figure: the grid its
// Probed function hands to Executor.RunAttribution, the report depth, and
// the figure data it derives from the reports.
type probedReplay struct {
	grid experiments.Grid
	topN int
	data func([]obs.Report) any
}

func probedReplays() map[string]probedReplay {
	return map[string]probedReplay{
		"attribution": {experiments.AttributionGrid(), experiments.AttributionTopN,
			func(r []obs.Report) any { return r }},
		"h2p": {experiments.H2PGrid(), 0, func(r []obs.Report) any {
			ranks := make([]obs.H2PRanking, len(r)/2)
			for p := range ranks {
				ranks[p] = obs.RankH2P(r[2*p], r[2*p+1], experiments.H2PTopN)
			}
			return ranks
		}},
	}
}

// probedCells counts the cells the probed figures replay themselves.
func probedCells(cfg experiments.Config, figs []experiments.Figure) int {
	n := 0
	for _, f := range figs {
		if pr, ok := probedReplays()[f.Name]; ok && f.Probed != nil {
			n += len(pr.grid.Cells(cfg.Programs))
		}
	}
	return n
}

// probedTraced replays one probed figure's grid with probe-attached
// engines, per program in the executor's lanes, as RunAttribution does.
func probedTraced(cfg experiments.Config, pr probedReplay, cts []*trace.Chunked, rec *Recorder, parent int, name string, lanes, per int) ([]obs.Report, error) {
	aid := rec.Start(parent, "probed:"+name)
	cells := pr.grid.Cells(cfg.Programs)
	defer rec.End(aid, int64(len(cells)))
	cpp := len(cells) / len(cfg.Programs)
	reports := make([]obs.Report, len(cells))
	err := inLanes(len(cfg.Programs), lanes, func(i int, _ *sync.Mutex) error {
		pid := rec.Start(aid, "program")
		defer rec.End(pid, 0)
		progCells := cells[i*cpp : (i+1)*cpp]
		engines := make([]fetch.Engine, len(progCells))
		atts := make([]*obs.Attribution, len(progCells))
		for j, c := range progCells {
			e, err := c.Spec.Build()
			if err != nil {
				return err
			}
			pa, ok := e.(fetch.ProbeAttacher)
			if !ok {
				return fmt.Errorf("cell %s/%s: engine accepts no probe", c.Prog.Name, c.Arm)
			}
			atts[j] = obs.NewAttribution()
			pa.AttachProbe(atts[j])
			engines[j] = e
		}
		var src trace.ChunkSource = cts[i].Chunks()
		if lb, same := lineBytes(progCells); same {
			src = cts[i].ChunksRuns(lb)
		}
		rec.Do(pid, "replay:"+progName(cfg.Programs[i].Name), func() (int64, error) {
			fetch.BroadcastWorkers(src, per, engines...)
			return int64(len(engines)) * int64(cts[i].Len()), nil
		})
		// reports slots are disjoint per program.
		for j, c := range progCells {
			reports[i*cpp+j] = atts[j].Report(c.Arm, c.Prog.Name, pr.topN, cfg.Penalties)
		}
		return nil
	})
	return reports, err
}

func sameRows(a, b map[string]metrics.Counters) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func progIndex(cfg experiments.Config, name string) int {
	for i, p := range cfg.Programs {
		if p.Name == name {
			return i
		}
	}
	return 0
}

// figuresSampleCheck re-simulates a seeded sample of an iteration's cells,
// one engine at a time through fetch.RunChunks, and requires the broadcast
// rows' exact counters.
func figuresSampleCheck(o *outcome, cfg experiments.Config, figs []experiments.Figure, fr *iterRun, seed uint64) error {
	cells := map[string]experiments.Cell{}
	for _, f := range figs {
		for _, c := range f.Grid.Cells(cfg.Programs) {
			cells[c.Key(cfg)] = c
		}
	}
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewPCG(seed, 0x73616d706c65)) // "sample"
	const sample = 4
	for _, i := range rng.Perm(len(keys))[:min(sample, len(keys))] {
		c := cells[keys[i]]
		ct, err := fr.r.ChunkedOne(progIndex(cfg, c.Prog.Name))
		if err != nil {
			return err
		}
		e, err := c.Spec.Build()
		if err != nil {
			return err
		}
		m := fetch.RunChunks(e, ct.Chunks())
		o.check(*m == fr.rows[keys[i]], "figures-cold: cell %s/%s: single-engine counters differ from the broadcast row", c.Prog.Name, c.Arm)
	}
	return nil
}

// figuresTraced is one traced iteration. It makes the executor's calls
// itself — generate, chunk, run-length scan and broadcast per program, in
// the executor's program lanes, then the probed figures' replays — with a
// span around each, and fills layers with the iteration's per-layer
// metrics.
func figuresTraced(cfg experiments.Config, figs []experiments.Figure, rec *Recorder, layers map[string]float64) (*iterRun, error) {
	needInfo := false
	for _, f := range figs {
		needInfo = needInfo || f.NeedsInfo
		if _, ok := probedReplays()[f.Name]; f.Probed != nil && !ok {
			return nil, fmt.Errorf("traced run: no traced replay for probed figure %q", f.Name)
		}
	}
	// Gather: unique cells per program, in first-seen order.
	byProg := make([][]experiments.Cell, len(cfg.Programs))
	seen := map[string]bool{}
	for _, f := range figs {
		for _, c := range f.Grid.Cells(cfg.Programs) {
			k := c.Key(cfg)
			if seen[k] {
				continue
			}
			seen[k] = true
			i := progIndex(cfg, c.Prog.Name)
			byProg[i] = append(byProg[i], c)
		}
	}

	beginMem() // start from the same released heap as an untraced iteration
	g0 := readGC()
	fr := &iterRun{rows: map[string]metrics.Counters{}}
	start := time.Now()
	wid := rec.Start(0, "workload")
	cts := make([]*trace.Chunked, len(cfg.Programs))
	var genRecords int64
	lanes, per := split(len(cfg.Programs))
	err := inLanes(len(cfg.Programs), lanes, func(i int, mu *sync.Mutex) error {
		pid := rec.Start(wid, "program")
		defer rec.End(pid, 0)
		var t *trace.Trace
		if err := rec.Do(pid, "acquire", func() (int64, error) {
			var err error
			t, err = cfg.Programs[i].Trace(cfg.Insns)
			return int64(cfg.Insns), err
		}); err != nil {
			return err
		}
		var ct *trace.Chunked
		rec.Do(pid, "chunk", func() (int64, error) {
			ct = trace.Chunk(t, trace.DefaultChunkRecords)
			return int64(ct.Len()), nil
		})
		cells := byProg[i]
		lb, same := lineBytes(cells)
		if same {
			rec.Do(pid, "runlens", func() (int64, error) { ct.RunLens(lb); return int64(ct.Len()), nil })
		}
		engines := make([]fetch.Engine, len(cells))
		for j, c := range cells {
			e, err := c.Spec.Build()
			if err != nil {
				return err
			}
			engines[j] = e
		}
		var src trace.ChunkSource = ct.Chunks()
		if same {
			src = ct.ChunksRuns(lb)
		}
		if needInfo {
			sc := trace.NewStatsCollector(ct.Name, ct.StaticCondSites)
			var bcs []*multiissue.BlockCounter
			for _, w := range experiments.FetchWidths() {
				bc, err := multiissue.NewBlockCounter(multiissue.Config{Width: w, LineBytes: experiments.LineBytes})
				if err != nil {
					return err
				}
				bcs = append(bcs, bc)
			}
			src = trace.TeeChunks(src, func(recs []trace.Record) {
				sc.Add(recs)
				for _, bc := range bcs {
					bc.Add(recs)
				}
			})
		}
		rec.Do(pid, "replay:"+progName(cfg.Programs[i].Name), func() (int64, error) {
			if len(engines) > 0 {
				fetch.BroadcastWorkers(src, per, engines...)
			} else {
				for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
				}
			}
			return int64(len(engines)) * int64(ct.Len()), nil
		})
		mu.Lock()
		defer mu.Unlock()
		cts[i] = ct
		genRecords += int64(cfg.Insns)
		for j, c := range cells {
			fr.rows[c.Key(cfg)] = *engines[j].Counters()
		}
		fr.simulated += len(cells)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The probed figures: probe-attached engines per program, per figure.
	probedData := map[string]any{}
	probedN := 0
	for _, f := range figs {
		if f.Probed == nil {
			continue
		}
		pr := probedReplays()[f.Name]
		reports, err := probedTraced(cfg, pr, cts, rec, wid, f.Name, lanes, per)
		if err != nil {
			return nil, err
		}
		probedData[f.Name] = pr.data(reports)
		probedN += len(reports)
	}
	rec.End(wid, int64(fr.simulated+probedN))
	fr.wall = time.Since(start)
	if fr.probed, err = json.Marshal(probedData); err != nil {
		return nil, err
	}
	fr.steps = int64(fr.simulated+probedN) * int64(cfg.Insns)
	gc1 := readGC()

	spans := rec.Spans()
	fr.stages = copyStages(spans, wid)
	self := selfByName(spans, wid)
	gen := self["acquire"].Seconds()
	layers["workload.gen_s"] = gen
	layers["workload.gen_records"] = float64(genRecords)
	layers["workload.gen_ns_per_record"] = gen * 1e9 / float64(genRecords)
	layers["trace.chunk_s"] = self["chunk"].Seconds()
	layers["trace.runlens_s"] = self["runlens"].Seconds()
	for p, s := range layerSeconds(spans, wid, "replay:") {
		layers["fetch.replay_s."+p] = s
	}
	layers["fetch.steps"] = float64(fr.steps)
	layers["runtime.gc_cycles"], layers["runtime.gc_cpu_share"] = gcDelta(g0, gc1)
	layers["closure.unexplained_share"] = 1 - ratioOr0(explainedSeconds(spans, wid), fr.wall.Seconds()*float64(lanes))
	return fr, nil
}

// lineBytes returns the cells' shared line size, or false when they mix
// line sizes (the executor then replays plain blocks).
func lineBytes(cells []experiments.Cell) (int, bool) {
	if len(cells) == 0 {
		return experiments.LineBytes, true
	}
	lb := cells[0].Spec.Cache.LineBytes
	for _, c := range cells[1:] {
		if c.Spec.Cache.LineBytes != lb {
			return 0, false
		}
	}
	return lb, true
}

// inLanes runs fn(i) for i in [0, n) on at most lanes goroutines, the
// executor's bounded program pool, and returns the first error.
func inLanes(n, lanes int, fn func(i int, mu *sync.Mutex) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		sem      = make(chan struct{}, lanes)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i, &mu); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
