package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/fetch"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// longInsns is the long-trace budget: the sweep service's MaxInsns cap.
const longInsns = 20_000_000

// longSetups is how many times a long-trace run builds its corpus; setup_s
// is their median.
const longSetups = 3

// longGrid is the long-trace sweep: the four paper factories × every
// simulated cache, as Runner.Sweep builds it.
func longGrid() experiments.Grid {
	var arms []experiments.Arm
	for _, pf := range probeFactories() {
		arms = append(arms, experiments.Arm{Name: pf.F.Name, Spec: pf.F.Spec, Caches: experiments.AllCaches()})
	}
	return experiments.Grid{Name: "sweep", Arms: arms}
}

// longTrace sweeps one 20M-instruction program, replayed from a corpus
// built during set-up, through the executor call Runner.Sweep makes. The
// traced run alternates those iterations with traced ones that decode,
// chunk, scan and broadcast themselves.
func longTrace(o *outcome, opt options) error {
	spec := seededSpec(opt.seed, "gcc-like")
	cfg := experiments.Config{Insns: longInsns, Programs: []workload.Spec{spec}, Penalties: metrics.Default()}
	path := experiments.CorpusPath(filepath.Join(opt.work, "corpus"), cfg)
	lanes, per := split(1)
	o.host.ProgramLanes, o.host.PerProgram = lanes, per
	grid := longGrid()

	var setups []float64
	if opt.trace {
		if err := longSetupTraced(o, spec, path); err != nil {
			return err
		}
	} else {
		for i := 0; i < longSetups; i++ {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
			start := time.Now()
			if _, err := experiments.NewRunner(cfg).UseCorpus(path); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
	}

	var runs, traced []*iterRun
	var tracedLayers []map[string]float64
	var timed time.Duration
	for i := 0; timed.Seconds() < opt.seconds || (opt.trace && len(traced) == 0); i++ {
		if opt.trace && i%2 == 1 {
			layers := map[string]float64{}
			fr, err := longTraced(cfg, grid, path, o.rec, layers)
			if err != nil {
				return err
			}
			pair := runs[len(runs)-1] // the untraced iteration before it
			layers["closure.executor_drift_share"] = checkDrift(o, "long-trace", pair.stages, fr.stages, pair.wall)
			traced = append(traced, fr)
			tracedLayers = append(tracedLayers, layers)
			timed += fr.wall
			continue
		}
		fr, err := longOnce(cfg, grid, path)
		if err != nil {
			return err
		}
		runs = append(runs, fr)
		timed += fr.wall
	}

	first := runs[0]
	for i, fr := range runs {
		o.ops(len(fr.rows), 0)
		if i > 0 {
			o.check(sameRows(first.rows, fr.rows), "long-trace: iteration %d rows differ from iteration 0", i)
		}
	}
	for i, fr := range traced {
		o.ops(len(fr.rows), 0)
		o.check(sameRows(first.rows, fr.rows), "long-trace: traced iteration %d counters differ from the untraced run", i)
	}
	decoded, err := decodeCorpus(path, spec.Name)
	if err != nil {
		return err
	}
	if err := sameAsGenerated(o, spec, decoded); err != nil {
		return err
	}

	if opt.trace {
		medianLayers(o, tracedLayers)
		flagDrift(o, "long-trace")
		medianLayers(o, observedLayers(runs))
		o.set("closure.tracing_overhead_share", ratioOr0(median(walls(traced)), median(walls(runs)))-1)
		if err := streamDecode(o, path, spec.Name); err != nil {
			return err
		}
		return probeLayers(o, o.rec, 0, decoded)
	}

	o.set("setup_s", median(setups))
	setE2E(o, runs)
	return nil
}

// longOnce is one untraced iteration: a fresh runner attaches the corpus
// and sweeps. Runner.Sweep is Executor{R: r}.RunGrids(false, grid) followed
// by ResultSet.Rows(grid); longOnce makes that call itself with an
// Executor.Observer attached, so every run records the executor's stage
// spans over the program code Runner.Sweep runs.
func longOnce(cfg experiments.Config, grid experiments.Grid, path string) (*iterRun, error) {
	mem := beginMem()
	r := experiments.NewRunner(cfg)
	fr := &iterRun{stages: map[string]float64{}}
	start := time.Now()
	r.Progress = func(experiments.SweepStats) {
		if fr.firstRow == 0 {
			fr.firstRow = time.Since(start)
		}
	}
	if _, err := r.UseCorpus(path); err != nil {
		return nil, err
	}
	x := &experiments.Executor{R: r, Observer: func(sp experiments.StageSpan) { fr.stages[sp.Stage] += sp.Seconds }}
	rs, err := x.RunGrids(false, grid)
	if err != nil {
		return nil, err
	}
	rows := rs.Rows(grid)
	fr.wall = time.Since(start)
	fr.peakMB, fr.allocMB = mem.end()
	if err := r.CloseCorpus(); err != nil {
		return nil, err
	}
	fr.simulated, fr.loaded = rs.Simulated, rs.Loaded
	fr.rows = map[string]metrics.Counters{}
	for i, c := range grid.Cells(cfg.Programs) {
		fr.rows[c.Key(cfg)] = rows[i].M
	}
	fr.steps = int64(rs.Simulated) * int64(cfg.Insns)
	return fr, nil
}

// longSetupTraced builds the corpus once with spans around generation and
// the corpus write.
func longSetupTraced(o *outcome, spec workload.Spec, path string) error {
	sid := o.rec.Start(0, "setup")
	defer o.rec.End(sid, 0)
	var t *trace.Trace
	var err error
	gen := timeSpan(o.rec, sid, "gen", longInsns, func() { t, err = spec.Trace(longInsns) })
	if err != nil {
		return err
	}
	o.set("workload.gen_s", gen)
	o.set("workload.gen_records", float64(t.Len()))
	o.set("workload.gen_ns_per_record", gen*1e9/float64(t.Len()))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var werr error
	build := timeSpan(o.rec, sid, "corpus-build", int64(t.Len()), func() {
		w, err := trace.CreateCorpus(path)
		if err != nil {
			werr = err
			return
		}
		if err := w.Add(t); err != nil {
			w.Abort()
			werr = err
			return
		}
		werr = w.Close()
	})
	o.set("trace.corpus_build_s", build)
	return werr
}

// longTraced is one traced iteration: open the corpus, decode, chunk,
// scan run lengths and broadcast the sweep's cells, with a span each.
func longTraced(cfg experiments.Config, grid experiments.Grid, path string, rec *Recorder, layers map[string]float64) (*iterRun, error) {
	cells := grid.Cells(cfg.Programs)
	_, per := split(1)
	beginMem() // start from the same released heap as an untraced iteration
	g0 := readGC()
	fr := &iterRun{rows: map[string]metrics.Counters{}}
	start := time.Now()
	wid := rec.Start(0, "workload")
	pid := rec.Start(wid, "program")
	var t *trace.Trace
	err := rec.Do(pid, "acquire", func() (int64, error) {
		var err error
		t, err = decodeCorpus(path, cfg.Programs[0].Name)
		if err != nil {
			return 0, err
		}
		return int64(t.Len()), nil
	})
	if err != nil {
		return nil, err
	}
	var ct *trace.Chunked
	rec.Do(pid, "chunk", func() (int64, error) {
		ct = trace.Chunk(t, trace.DefaultChunkRecords)
		return int64(ct.Len()), nil
	})
	rec.Do(pid, "runlens", func() (int64, error) { ct.RunLens(experiments.LineBytes); return int64(ct.Len()), nil })
	engines := make([]fetch.Engine, len(cells))
	for j, c := range cells {
		e, err := c.Spec.Build()
		if err != nil {
			return nil, err
		}
		engines[j] = e
	}
	name := progName(cfg.Programs[0].Name)
	rec.Do(pid, "replay:"+name, func() (int64, error) {
		fetch.BroadcastWorkers(ct.ChunksRuns(experiments.LineBytes), per, engines...)
		return int64(len(engines)) * int64(ct.Len()), nil
	})
	rec.End(pid, 0)
	rec.End(wid, int64(len(cells)))
	fr.wall = time.Since(start)
	gc1 := readGC()
	for j, c := range cells {
		fr.rows[c.Key(cfg)] = *engines[j].Counters()
	}
	fr.simulated = len(cells)
	fr.steps = int64(len(cells)) * int64(cfg.Insns)

	spans := rec.Spans()
	fr.stages = copyStages(spans, wid)
	self := selfByName(spans, wid)
	dec := self["acquire"].Seconds()
	layers["trace.decode_s"] = dec
	layers["trace.decode_ns_per_record"] = dec * 1e9 / float64(t.Len())
	layers["trace.chunk_s"] = self["chunk"].Seconds()
	layers["trace.runlens_s"] = self["runlens"].Seconds()
	layers["fetch.replay_s."+name] = self["replay:"+name].Seconds()
	layers["fetch.steps"] = float64(fr.steps)
	layers["runtime.gc_cycles"], layers["runtime.gc_cpu_share"] = gcDelta(g0, gc1)
	layers["closure.unexplained_share"] = 1 - ratioOr0(explainedSeconds(spans, wid), fr.wall.Seconds())
	return fr, nil
}

// decodeCorpus opens the corpus at path and decodes one program's trace.
func decodeCorpus(path, name string) (*trace.Trace, error) {
	c, err := trace.OpenCorpus(path)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Trace(name)
}

// sameAsGenerated checks the corpus-decoded trace against a fresh
// generation, record for record, streaming the generated side so the check
// holds one trace in memory, not two.
func sameAsGenerated(o *outcome, spec workload.Spec, decoded *trace.Trace) error {
	src, err := spec.Source()
	if err != nil {
		return err
	}
	i, firstBad := 0, -1
	n := src.Run(longInsns, func(r trace.Record) {
		if firstBad < 0 && (i >= len(decoded.Records) || decoded.Records[i] != r) {
			firstBad = i
		}
		i++
	})
	ok := firstBad < 0 && n == len(decoded.Records)
	o.check(ok, "long-trace: decoded trace differs from the generated trace (first at record %d, %d vs %d records)",
		firstBad, len(decoded.Records), n)
	return nil
}

// streamDecode measures the corpus's streaming decoder: draining
// Corpus.ChunkSource for the program.
func streamDecode(o *outcome, path, name string) error {
	c, err := trace.OpenCorpus(path)
	if err != nil {
		return err
	}
	defer c.Close()
	src, err := c.ChunkSource(name, trace.DefaultChunkRecords)
	if err != nil {
		return err
	}
	var n int64
	d := timeSpan(o.rec, 0, "stream-decode", longInsns, func() {
		for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
			n += int64(len(blk))
		}
	})
	if n == 0 {
		return fmt.Errorf("stream decode of %s read no records", name)
	}
	o.set("trace.stream_decode_ns_per_record", d*1e9/float64(n))
	return nil
}
