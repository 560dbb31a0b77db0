package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailReportsHighestPercentileWithThirtyBeyond(t *testing.T) {
	cases := []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{1000, 950, 95, 50}, // p99 would leave 10 beyond
		{100, 50, 50, 50},   // p75 would leave 25 beyond
		{400, 360, 90, 40},  // p95 would leave 20 beyond
		{60, 30, 50, 30},    // only the median leaves 30 beyond
		{59, 59, 100, 0},    // nothing qualifies: the maximum
		{5, 5, 100, 0},      // likewise
		{1, 1, 100, 0},      // a single sample is its own tail
		{599, 540, 90, 59},  // p95 would leave 29 beyond
		{600, 570, 95, 30},
		{2999, 2850, 95, 149}, // p99 would leave 29 beyond
		{3000, 2970, 99, 30},
		{6000, 5970, 99.5, 30},
	}
	for _, c := range cases {
		got := tail(seq(c.n))
		want := Tail{Value: c.value, Percentile: c.pct, Beyond: c.beyond, N: c.n}
		if got != want {
			t.Errorf("tail of 1..%d = %+v, want %+v", c.n, got, want)
		}
	}
	if got := tail(nil); got != (Tail{}) {
		t.Errorf("tail(nil) = %+v, want zero", got)
	}
}

func TestTailLeavesMinBeyondSamples(t *testing.T) {
	for n := 1; n <= 3000; n += 7 {
		xs := seq(n)
		tl := tail(xs)
		if tl.N != n {
			t.Fatalf("n=%d: sample count %d", n, tl.N)
		}
		beyond := 0
		for _, x := range xs {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond != tl.Beyond {
			t.Fatalf("n=%d: %d samples beyond p%g, reported %d", n, beyond, tl.Percentile, tl.Beyond)
		}
		if tl.Percentile < 100 && beyond < minBeyond {
			t.Fatalf("n=%d: p%g has only %d samples beyond", n, tl.Percentile, beyond)
		}
		if tl.Percentile == 100 && n >= 2*minBeyond {
			t.Fatalf("n=%d: fell back to the maximum although p50 qualifies", n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestHistQuantileInterpolatesInsideBuckets(t *testing.T) {
	bounds := []float64{1, 2, 4, math.Inf(1)}
	cum := []uint64{10, 20, 30, 40}
	if got := histQuantile(0.5, bounds, cum); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := histQuantile(0.25, bounds, cum); got != 1 {
		t.Errorf("p25 = %v, want 1", got)
	}
	if got := histQuantile(0.6, bounds, cum); got != 2.8 {
		t.Errorf("p60 = %v, want 2.8", got)
	}
	if got := histQuantile(0.9, bounds, cum); got != 4 {
		t.Errorf("p90 (in +Inf bucket) = %v, want the highest finite bound 4", got)
	}
	if got := histQuantile(0.5, bounds, []uint64{0, 0, 0, 0}); got != 0 {
		t.Errorf("empty histogram = %v", got)
	}
}

func TestPromParsing(t *testing.T) {
	text := `# HELP nls_queue_wait_seconds x
nls_queue_wait_seconds_bucket{le="0.001"} 3
nls_queue_wait_seconds_bucket{le="0.01"} 7
nls_queue_wait_seconds_bucket{le="+Inf"} 9
nls_queue_wait_seconds_sum 0.05
nls_executor_stage_seconds_sum{stage="replay"} 1.5
`
	b, c := promHist(text, "nls_queue_wait_seconds")
	if !reflect.DeepEqual(b, []float64{0.001, 0.01, math.Inf(1)}) || !reflect.DeepEqual(c, []uint64{3, 7, 9}) {
		t.Errorf("promHist = %v %v", b, c)
	}
	if got := promValue(text, `nls_executor_stage_seconds_sum{stage="replay"}`); got != 1.5 {
		t.Errorf("promValue = %v", got)
	}
	if got := promValue(text, "nls_missing"); got != 0 {
		t.Errorf("missing series = %v", got)
	}
}

func TestSeededProgramsRepeatPerSeed(t *testing.T) {
	a, b := seededPrograms(7, workload.All()), seededPrograms(7, workload.All())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different programs")
	}
	c := seededPrograms(8, workload.All())
	for i := range a {
		if a[i].Seed == c[i].Seed {
			t.Errorf("%s: seeds 7 and 8 gave the same Spec.Seed", a[i].Name)
		}
		if !reflect.DeepEqual(a[i].Params, workload.All()[i].Params) {
			t.Errorf("%s: seeding changed the calibrated Params", a[i].Name)
		}
	}
	// Iterations and rounds draw their own seeds, the same ones every run.
	if subSeed(7, 0) != subSeed(7, 0) || subSeed(7, 0) == subSeed(7, 1) || subSeed(7, 1) == subSeed(8, 1) {
		t.Error("subSeed is not a deterministic, distinct per-iteration seed")
	}
	// The generated inputs follow: same seed, same trace; other seed, other trace.
	ta, err := a[2].Trace(20000)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := b[2].Trace(20000)
	tc, _ := c[2].Trace(20000)
	if !reflect.DeepEqual(ta.Records, tb.Records) {
		t.Error("same seed gave different traces")
	}
	if reflect.DeepEqual(ta.Records, tc.Records) {
		t.Error("different seeds gave the same trace")
	}
}

func TestJobStreamRepeatsPerSeed(t *testing.T) {
	enc := func(jobs []serve.Job) string {
		b, err := json.Marshal(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b, c := jobStream(3, serveRoundJobs), jobStream(3, serveRoundJobs), jobStream(4, serveRoundJobs)
	if enc(a) != enc(b) {
		t.Fatal("same seed gave different job streams")
	}
	if enc(a) == enc(c) {
		t.Fatal("different seeds gave the same job stream")
	}
	// Every job is valid, within the issue's shape, and the stream holds
	// back-to-back repeats, later repeats, and overlapping jobs.
	keys := make([]string, len(a))
	cellsSeen := map[string]bool{}
	overlaps := 0
	for i, j := range a {
		cj, err := serve.CompileJob(j, serve.Limits{})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		keys[i] = cj.Key
		if n := len(j.Programs); n < 1 || n > 2 {
			t.Errorf("job %d: %d programs", i, n)
		}
		if n := len(j.Grid.Arms); n < 1 || n > 3 {
			t.Errorf("job %d: %d specs", i, n)
		}
		if n := len(j.Grid.Arms[0].Caches); n < 1 || n > 2 {
			t.Errorf("job %d: %d caches", i, n)
		}
		shared, fresh := 0, 0
		for _, cell := range cj.Grid.Cells(cj.Cfg.Programs) {
			if k := cell.Key(cj.Cfg); cellsSeen[k] {
				shared++
			} else {
				cellsSeen[k] = true
				fresh++
			}
		}
		if shared > 0 && fresh > 0 {
			overlaps++
		}
	}
	backToBack, repeats := 0, 0
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			backToBack++
		}
		for _, k := range keys[:i] {
			if k == keys[i] {
				repeats++
				break
			}
		}
	}
	if backToBack == 0 || repeats <= backToBack || overlaps == 0 {
		t.Errorf("stream mix: %d back-to-back, %d repeats, %d overlapping jobs", backToBack, repeats, overlaps)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []Span{
		{ID: 1, Parent: 0, Name: "workload", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "program", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "program", Start: ms(30), End: ms(60)}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "acquire", Start: ms(15), End: ms(25)},
		{ID: 5, Parent: 3, Name: "replay:gcc", Start: ms(35), End: ms(60)},
		{ID: 6, Parent: 5, Name: "annotate:8k1w", Start: ms(40), End: ms(45)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(50), // 100 minus the union 10..60 of its overlapping children
		2: ms(20),
		3: ms(5),
		4: ms(10),
		5: ms(20),
		6: ms(5),
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byName := selfByName(spans, 1)
	if byName["program"] != ms(25) || byName["replay:gcc"] != ms(20) {
		t.Errorf("self by name = %v", byName)
	}
	// Layer spans explain acquire + replay + annotate self time.
	if got := explainedSeconds(spans, 1); math.Abs(got-0.035) > 1e-12 {
		t.Errorf("explained = %v, want 0.035", got)
	}
	// A subtree excludes its siblings.
	if got := selfByName(spans, 3); got["acquire"] != 0 || got["replay:gcc"] != ms(20) {
		t.Errorf("subtree self = %v", got)
	}
	if got := layerSeconds(spans, 1, "replay:"); got["gcc"] != 0.02 {
		t.Errorf("layerSeconds = %v", got)
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	p := Span{Start: 10, End: 100}
	kids := []Span{{Start: 0, End: 20}, {Start: 15, End: 30}, {Start: 50, End: 60}, {Start: 90, End: 120}}
	if got := covered(p, kids); got != 20+10+10 {
		t.Errorf("covered = %v, want 40", got)
	}
}

func TestCopyStagesAndDriftCheck(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []Span{
		{ID: 1, Parent: 0, Name: "workload", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "program", Start: ms(0), End: ms(60)},
		{ID: 3, Parent: 2, Name: "acquire", Start: ms(0), End: ms(10)},
		{ID: 4, Parent: 2, Name: "chunk", Start: ms(10), End: ms(12)},
		{ID: 5, Parent: 2, Name: "runlens", Start: ms(12), End: ms(15)},
		{ID: 6, Parent: 2, Name: "replay:gcc", Start: ms(15), End: ms(55)},
		// A probed figure's replay: no executor stage covers it.
		{ID: 7, Parent: 1, Name: "probed:h2p", Start: ms(60), End: ms(100)},
		{ID: 8, Parent: 7, Name: "program", Start: ms(60), End: ms(100)},
		{ID: 9, Parent: 8, Name: "replay:gcc", Start: ms(60), End: ms(100)},
	}
	got := copyStages(spans, 1)
	if math.Abs(got["trace-gen"]-0.012) > 1e-12 || math.Abs(got["replay"]-0.040) > 1e-12 {
		t.Fatalf("copyStages = %v, want trace-gen 0.012, replay 0.040", got)
	}

	wall := ms(100)
	o := newOutcome()
	near := map[string]float64{"gather": 0.001, "trace-gen": 0.015, "replay": 0.036}
	if gap := checkDrift(o, "w", near, got, wall); o.badChecks != 0 || math.Abs(gap-0.2) > 1e-9 {
		t.Errorf("near executor: gap %v, %d failed checks %v", gap, o.badChecks, o.failures)
	}
	o = newOutcome()
	checkDrift(o, "w", map[string]float64{"trace-gen": 0.012, "replay": 0.100}, got, wall)
	if o.badChecks != 1 {
		t.Errorf("copy replay at 0.4x the executor's: %d failed checks, want 1", o.badChecks)
	}
	o = newOutcome()
	checkDrift(o, "w", map[string]float64{"trace-gen": 0.012, "replay": 0.040, "gen-corpus": 0.030}, got, wall)
	if o.badChecks != 1 {
		t.Errorf("an executor stage the copy lacks: %d failed checks, want 1", o.badChecks)
	}
}
