package fetch

import (
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// broadcastEngines builds one engine of each architecture on a shared
// geometry, twice: a broadcast set and a per-engine oracle set.
func broadcastEngines() (bcast, oracle []Engine) {
	g := cache.MustGeometry(8*1024, 32, 1)
	mk := func() []Engine {
		return []Engine{
			NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32),
			NewNLSCacheEngine(g, 2, pht.NewGShare(1024, 6), 32),
			NewBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32),
			NewCoupledBTBEngine(g, btb.Config{Entries: 128, Assoc: 4}, 32),
			NewJohnsonEngine(g),
		}
	}
	return mk(), mk()
}

// TestBroadcastMatchesRun: replaying a chunked trace once through BroadcastWorkers
// leaves every engine with exactly the counters the per-record Run path
// produces, at any worker count.
func TestBroadcastMatchesRun(t *testing.T) {
	tr := workload.Li().MustTrace(60_000)
	chunked := trace.Chunk(tr, 1024)

	for _, workers := range []int{0, 1, 2, 3, 16} {
		bcast, oracle := broadcastEngines()
		n := BroadcastWorkers(chunked.Chunks(), workers, bcast...)
		if n != int64(tr.Len()) {
			t.Fatalf("workers=%d: replayed %d records, want %d", workers, n, tr.Len())
		}
		for i, e := range oracle {
			want := *Run(e, tr)
			got := *bcast[i].Counters()
			if got != want {
				t.Errorf("workers=%d engine %s: counters diverge\n got %+v\nwant %+v",
					workers, bcast[i].Name(), got, want)
			}
		}
	}
}

// TestBroadcastRunsAnnotated: a ChunksRuns source (shared precomputed run
// annotations) is bit-identical to the plain replay at any worker count —
// the broadcaster routes matching-line-size engines through StepBlockRuns.
func TestBroadcastRunsAnnotated(t *testing.T) {
	tr := workload.Li().MustTrace(60_000)
	chunked := trace.Chunk(tr, 1024)

	for _, workers := range []int{1, 3} {
		bcast, oracle := broadcastEngines()
		n := BroadcastWorkers(chunked.ChunksRuns(32), workers, bcast...)
		if n != int64(tr.Len()) {
			t.Fatalf("workers=%d: replayed %d records, want %d", workers, n, tr.Len())
		}
		for i, e := range oracle {
			want := *Run(e, tr)
			if got := *bcast[i].Counters(); got != want {
				t.Errorf("workers=%d engine %s: annotated counters diverge\n got %+v\nwant %+v",
					workers, bcast[i].Name(), got, want)
			}
		}
	}
}

// TestStepBlockRunsMatchesStepBlock: the precomputed-run replay path is
// exactly the scanning path (and a plain Step loop) for every engine, with
// and without an annotation.
func TestStepBlockRunsMatchesStepBlock(t *testing.T) {
	tr := workload.Groff().MustTrace(30_000)
	chunked := trace.Chunk(tr, 1000)
	runs := chunked.RunLens(32)

	bcast, oracle := broadcastEngines()
	for i := range bcast {
		re, ok := bcast[i].(interface {
			StepBlockRuns(recs []trace.Record, runs []uint8)
		})
		if !ok {
			t.Fatalf("engine %s does not implement StepBlockRuns", bcast[i].Name())
		}
		for bi := 0; bi < chunked.NumChunks(); bi++ {
			if bi%2 == 0 {
				re.StepBlockRuns(chunked.Block(bi), runs[bi])
			} else {
				re.StepBlockRuns(chunked.Block(bi), nil) // fallback path
			}
		}
		want := *Run(oracle[i], tr)
		if got := *bcast[i].Counters(); got != want {
			t.Errorf("engine %s: StepBlockRuns diverges from Step", bcast[i].Name())
		}
	}
}

// TestBroadcastStreaming: a streaming source (no materialized trace)
// broadcast to several engines matches the materialized replay.
func TestBroadcastStreaming(t *testing.T) {
	const n = 60_000
	spec := workload.Espresso()
	tr := spec.MustTrace(n)
	src, err := spec.Source()
	if err != nil {
		t.Fatal(err)
	}

	bcast, oracle := broadcastEngines()
	got := BroadcastWorkers(trace.NewSourceChunks(src, n, 512), 2, bcast...)
	if got != n {
		t.Fatalf("streamed %d records, want %d", got, n)
	}
	for i, e := range oracle {
		want := *Run(e, tr)
		if g := *bcast[i].Counters(); g != want {
			t.Errorf("engine %s: streamed counters diverge from materialized", bcast[i].Name())
		}
	}
}

// TestBroadcastNoEngines: with no engines the source must not be consumed.
func TestBroadcastNoEngines(t *testing.T) {
	tr := trace.Chunk(workload.Li().MustTrace(2_000), 256)
	it := tr.Chunks()
	if n := BroadcastWorkers(it, 1); n != 0 {
		t.Fatalf("replayed %d records with no engines", n)
	}
	if blk := it.NextChunk(); len(blk) != 256 {
		t.Fatalf("source was consumed: first chunk now %d records", len(blk))
	}
}

// TestStepBlockMatchesStep: StepBlock is exactly a Step loop for every
// engine.
func TestStepBlockMatchesStep(t *testing.T) {
	tr := workload.Groff().MustTrace(30_000)
	bcast, oracle := broadcastEngines()
	for i := range bcast {
		// Feed via StepBlock in uneven slices to cross block sizes.
		recs := tr.Records
		for len(recs) > 0 {
			k := 777
			if k > len(recs) {
				k = len(recs)
			}
			bcast[i].StepBlock(recs[:k])
			recs = recs[k:]
		}
		want := *Run(oracle[i], tr)
		if got := *bcast[i].Counters(); got != want {
			t.Errorf("engine %s: StepBlock diverges from Step", bcast[i].Name())
		}
	}
}
