package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fetch"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
)

// geoName is a geometry's metric-name form: "16k4w" is 16KB 4-way.
func geoName(g cache.Geometry) string {
	return fmt.Sprintf("%dk%dw", g.SizeBytes()/1024, g.Assoc())
}

// progName is a program's metric-name form ("gcc-like" -> "gcc").
func progName(name string) string { return strings.TrimSuffix(name, "-like") }

// namedFactory is a sweep factory with its metric-name form.
type namedFactory struct {
	Name string
	F    experiments.Factory
}

// probeFactories are the four paper factories of the sweep benchmarks and
// the long-trace workload.
func probeFactories() []namedFactory {
	return []namedFactory{
		{"nls-table-1024", experiments.NLSTableFactory(1024)},
		{"nls-cache", experiments.NLSCacheFactory(experiments.NLSPerLine)},
		{"btb-128", experiments.BTBFactory(btb.Config{Entries: 128, Assoc: 1})},
		{"johnson", experiments.JohnsonFactory()},
	}
}

// executorStages are the experiments.StageSpan stage names.
var executorStages = []string{"gather", "gen-corpus", "trace-gen", "replay", "store-save"}

// perLayer lists the per-layer metrics of a traced run, in report order.
// A layer the traced run does not reach on a workload reads 0 there.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.gen_s", "s"},
		{"workload.gen_records", "count"},
		{"workload.gen_ns_per_record", "ns"},
		{"trace.decode_s", "s"},
		{"trace.decode_ns_per_record", "ns"},
		{"trace.stream_decode_ns_per_record", "ns"},
		{"trace.chunk_s", "s"},
		{"trace.runlens_s", "s"},
		{"trace.corpus_build_s", "s"},
	}
	for _, g := range experiments.AllCaches() {
		defs = append(defs, metricDef{"cache.annotate_s." + geoName(g), "s"})
	}
	defs = append(defs,
		metricDef{"cache.annotate_records", "count"},
		metricDef{"pht.gshare_ns", "ns"},
		metricDef{"pht.tage_ns", "ns"},
		metricDef{"btb.ns", "ns"},
		metricDef{"core.nls_table_ns", "ns"},
		metricDef{"core.nls_cache_ns", "ns"},
		metricDef{"core.johnson_ns", "ns"},
	)
	for _, p := range programNames() {
		defs = append(defs, metricDef{"fetch.replay_s." + progName(p), "s"})
	}
	defs = append(defs, metricDef{"fetch.steps", "count"})
	for _, f := range probeFactories() {
		defs = append(defs, metricDef{"fetch.step_ns." + f.Name, "ns"})
	}
	defs = append(defs, metricDef{"fetch.broadcast_ratio", "ratio"})
	for _, st := range executorStages {
		defs = append(defs, metricDef{"experiments.stage_sum_s." + st, "s"})
	}
	defs = append(defs,
		metricDef{"experiments.cells_simulated", "count"},
		metricDef{"experiments.cells_loaded", "count"},
		metricDef{"experiments.store_hit_ratio", "ratio"},
		metricDef{"experiments.store_load_ns", "ns"},
		metricDef{"experiments.store_save_ns", "ns"},
		metricDef{"serve.queue_wait_ms.p50", "ms"},
		metricDef{"serve.queue_wait_ms.tail", "ms"},
		metricDef{"serve.flight_share_ratio", "ratio"},
		metricDef{"serve.store_hit_ratio", "ratio"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.overhead_ms", "ms"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"closure.unexplained_share", "ratio"},
		metricDef{"closure.tracing_overhead_share", "ratio"},
		metricDef{"closure.executor_drift_share", "ratio"},
	)
	return defs
}

// zeroLayers sets every per-layer metric to 0, so a layer the workload's
// traced run does not reach reports 0 rather than going missing.
func zeroLayers(o *outcome) {
	for _, d := range perLayer() {
		o.set(d.Name, 0)
	}
}

// observedLayers returns each untraced iteration's executor accounting,
// from its Executor.Observer stage spans and result set.
func observedLayers(runs []*iterRun) []map[string]float64 {
	var out []map[string]float64
	for _, r := range runs {
		m := map[string]float64{
			"experiments.cells_simulated": float64(r.simulated),
			"experiments.cells_loaded":    float64(r.loaded),
		}
		for k, v := range r.stages {
			m["experiments.stage_sum_s."+k] = v
		}
		out = append(out, m)
	}
	return out
}

// copyStages sums, over the program spans directly under root, the self
// time of the traced copy's calls that an executor stage times: trace-gen
// covers acquire and chunk (Runner.ChunkedOne), replay the broadcast. The
// probed figures' replays sit under probed:<figure> spans, which no
// executor stage covers, so they are left out.
func copyStages(spans []Span, root int) map[string]float64 {
	out := map[string]float64{"trace-gen": 0, "replay": 0}
	for _, s := range spans {
		if s.Parent != root || s.Name != "program" {
			continue
		}
		for name, d := range selfByName(spans, s.ID) {
			switch {
			case name == "acquire" || name == "chunk":
				out["trace-gen"] += d.Seconds()
			case strings.HasPrefix(name, "replay:"):
				out["replay"] += d.Seconds()
			}
		}
	}
	return out
}

// Drift tolerances of the traced copy against the executor. A traced
// iteration fails its check when a stage's copy time is not within a
// factor of driftFactor of the executor's, or when an executor stage the
// copy lacks takes more than driftStageShare of the iteration wall. A run
// whose median gap exceeds driftFlag is flagged on stderr and in the notes.
const (
	driftFactor     = 2.0
	driftStageShare = 0.05
	driftFlag       = 0.25
)

// checkDrift compares a traced iteration's copy of the executor pipeline
// (copied, from copyStages) with the Executor.Observer stage spans of the
// untraced iteration it is paired with (observed), so a change to the
// executor that the copy does not follow shows: the copy would then no
// longer describe the program. It returns the largest relative gap,
// |copy ÷ executor − 1|, over the stages both make.
func checkDrift(o *outcome, workload string, observed, copied map[string]float64, wall time.Duration) float64 {
	var gap float64
	for _, st := range executorStages {
		obs := observed[st]
		cp, made := copied[st]
		if !made {
			o.check(obs <= driftStageShare*wall.Seconds(),
				"%s: executor stage %s took %.3gs of a %.3gs iteration; the traced copy has no counterpart", workload, st, obs, wall.Seconds())
			continue
		}
		r := ratioOr0(cp, obs)
		o.check(r >= 1/driftFactor && r <= driftFactor,
			"%s: traced copy's %s time %.3gs is not within %gx of the executor's %.3gs", workload, st, cp, driftFactor, obs)
		gap = max(gap, math.Abs(r-1))
	}
	return gap
}

// flagDrift flags a run whose median drift (closure.executor_drift_share)
// exceeds driftFlag.
func flagDrift(o *outcome, workload string) {
	if d := o.values["closure.executor_drift_share"]; d > driftFlag {
		o.notes["closure.executor_drift_share"] = fmt.Sprintf("FLAG: above %g", driftFlag)
		fmt.Fprintf(os.Stderr, "perfbench: %s: flag: the traced copy's stage times stray %.0f%% (median) from the executor's\n", workload, 100*d)
	}
}

// medianLayers sets each metric to its median over the traced iterations.
func medianLayers(o *outcome, iters []map[string]float64) {
	vals := map[string][]float64{}
	for _, m := range iters {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		o.set(k, median(vs))
	}
}

// probeRecords bounds the trace prefix the isolated layer probes run on,
// so probe cost does not grow with the workload's trace size.
const probeRecords = 1_000_000

// probeLayers measures layers in isolation on a prefix of t, recording a
// span per measured call under parent: one Oracle.Annotate pass per
// geometry, one single-engine fetch.RunChunks replay per cell of the four
// paper factories × paper caches and one BroadcastWorkers replay of the
// same cells, and the direction, target and NLS structures' lookup+update
// loops over the prefix's breaks. The per-cell counters must equal the
// broadcast's: that is an output check.
func probeLayers(o *outcome, rec *Recorder, parent int, t *trace.Trace) error {
	recs := t.Records
	if len(recs) > probeRecords {
		recs = recs[:probeRecords]
	}
	pt := &trace.Trace{Name: t.Name, StaticCondSites: t.StaticCondSites, Records: recs}
	ct := trace.Chunk(pt, trace.DefaultChunkRecords)
	runs := ct.RunLens(experiments.LineBytes)
	pid := rec.Start(parent, "probe")
	defer rec.End(pid, int64(len(recs)))

	// cache: oracle annotation per geometry.
	var annotated int64
	for _, g := range experiments.AllCaches() {
		o.set("cache.annotate_s."+geoName(g), timeSpan(rec, pid, "annotate:"+geoName(g), int64(len(recs)), func() {
			orc := cache.NewOracle(g)
			var ann cache.AccessAnnotations
			for i := 0; i < ct.NumChunks(); i++ {
				orc.Annotate(ct.Block(i), runs[i], &ann)
			}
			ann.Release()
		}))
		annotated += int64(len(recs))
	}
	o.set("cache.annotate_records", float64(annotated))

	// fetch: per-cell single-engine replay vs one broadcast of the cells.
	var perCell time.Duration
	var single []fetch.Engine
	ref := cache.MustGeometry(16*1024, experiments.LineBytes, 1)
	for _, pf := range probeFactories() {
		for _, g := range experiments.PaperCaches() {
			e := pf.F.New(g)
			d := time.Duration(timeSpan(rec, pid, "step:"+pf.Name, int64(len(recs)), func() {
				fetch.RunChunks(e, ct.Chunks())
			}) * float64(time.Second))
			perCell += d
			if g == ref {
				o.set("fetch.step_ns."+pf.Name, float64(d.Nanoseconds())/float64(len(recs)))
			}
			single = append(single, e)
		}
	}
	var engines []fetch.Engine
	for _, pf := range probeFactories() {
		for _, g := range experiments.PaperCaches() {
			engines = append(engines, pf.F.New(g))
		}
	}
	_, workers := split(1)
	bc := timeSpan(rec, pid, "broadcast", int64(len(recs)*len(engines)), func() {
		fetch.BroadcastWorkers(ct.ChunksRuns(experiments.LineBytes), workers, engines...)
	})
	o.set("fetch.broadcast_ratio", ratioOr0(perCell.Seconds(), bc))
	for i := range engines {
		o.check(*engines[i].Counters() == *single[i].Counters(),
			"probe cell %s: per-cell counters differ from the broadcast's", engines[i].Name())
	}

	// Direction, target and NLS structures, per break.
	var breaks, conds []trace.Record
	for _, r := range recs {
		if r.IsBreak() {
			breaks = append(breaks, r)
			if r.Kind == isa.CondBranch {
				conds = append(conds, r)
			}
		}
	}
	perOp := func(name string, ops []trace.Record, fn func()) float64 {
		if len(ops) == 0 {
			return 0
		}
		// Median of three passes over fresh structures.
		var ds []float64
		for i := 0; i < 3; i++ {
			ds = append(ds, timeSpan(rec, pid, name, int64(len(ops)), fn))
		}
		return median(ds) * 1e9 / float64(len(ops))
	}
	o.set("pht.gshare_ns", perOp("gshare", conds, func() {
		p := pht.NewGShare(experiments.PHTEntries, experiments.PHTHistoryBits)
		for _, r := range conds {
			p.Predict(r.PC)
			p.Update(r.PC, r.Taken)
		}
	}))
	tageSpec := arch.TAGEPHT()
	if _, err := tageSpec.Build(); err != nil {
		return fmt.Errorf("tage: %w", err)
	}
	o.set("pht.tage_ns", perOp("tage", conds, func() {
		d, _ := tageSpec.Build()
		p := pht.AsDirection(d)
		for _, r := range conds {
			_, tok := p.Predict(r.PC)
			p.Resolve(r.PC, tok, r.Taken)
		}
	}))
	o.set("btb.ns", perOp("btb", breaks, func() {
		b := btb.New(btb.Config{Entries: 128, Assoc: 1})
		for _, r := range breaks {
			b.Lookup(r.PC)
			if r.Taken {
				b.RecordTaken(r.PC, r.Target, r.Kind)
			}
		}
	}))
	o.set("core.nls_table_ns", perOp("nls-table", breaks, func() {
		tb := core.NewTable(1024, ref)
		for _, r := range breaks {
			tb.Lookup(r.PC)
			tb.Update(r.PC, r.Kind, r.Taken, r.Target, 0)
		}
	}))
	o.set("core.nls_cache_ns", perOp("nls-cache", breaks, func() {
		lc := core.NewLineCoupled(cache.New(ref), experiments.NLSPerLine)
		for _, r := range breaks {
			set := ref.SetIndex(r.PC)
			lc.Lookup(r.PC, set, 0)
			lc.UpdateAt(r.PC, r.Kind, r.Taken, r.Target, 0, set, 0)
		}
	}))
	o.set("core.johnson_ns", perOp("johnson", breaks, func() {
		j := core.NewJohnson(cache.New(ref))
		for _, r := range breaks {
			set := ref.SetIndex(r.PC)
			j.Lookup(r.PC, set, 0)
			j.UpdateAt(r.PC, r.Next(), 0, set, 0)
		}
	}))
	return nil
}

// timeSpan runs fn as a span and returns its wall time in seconds.
func timeSpan(rec *Recorder, parent int, name string, count int64, fn func()) float64 {
	id := rec.Start(parent, name)
	fn()
	rec.End(id, count)
	return rec.Get(id).Dur().Seconds()
}

// isStructural reports whether a span only groups layer calls (its self
// time is benchmark glue, not layer work).
func isStructural(name string) bool {
	switch name {
	case "run", "workload", "program", "round", "probe", "setup":
		return true
	}
	return strings.HasPrefix(name, "probed:")
}

// explainedSeconds sums the self time of the layer spans under root.
func explainedSeconds(spans []Span, root int) float64 {
	var s time.Duration
	for name, d := range selfByName(spans, root) {
		if !isStructural(name) {
			s += d
		}
	}
	return s.Seconds()
}

// layerSeconds sums self time under root per span name with the prefix,
// keyed by the rest of the name.
func layerSeconds(spans []Span, root int, prefix string) map[string]float64 {
	out := map[string]float64{}
	for name, d := range selfByName(spans, root) {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			out[rest] += d.Seconds()
		}
	}
	return out
}
