package fetch

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pipelineEngines builds one engine set spanning several geometries, so
// the annotation goroutine runs multiple per-geometry oracle passes
// concurrently (one goroutine each) for every chunk.
func pipelineEngines() []Engine {
	var engines []Engine
	for _, g := range []cache.Geometry{
		cache.MustGeometry(4*1024, 32, 1),
		cache.MustGeometry(8*1024, 32, 2),
		cache.MustGeometry(16*1024, 32, 4),
	} {
		engines = append(engines,
			NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32),
			NewNLSCacheEngine(g, 2, pht.NewGShare(1024, 6), 32),
			NewBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32),
			NewJohnsonEngine(g),
		)
	}
	return engines
}

// mixedLineEngines extends pipelineEngines with 16-byte-line and
// 64-byte-line geometries, each holding an oracle group and a private
// fused-path engine, so one broadcast shares run annotations at three line
// sizes at once: the oracles and the private engines of each line size
// read the same per-chunk runs.
func mixedLineEngines() []Engine {
	g16 := cache.MustGeometry(8*1024, 16, 2)
	g64 := cache.MustGeometry(16*1024, 64, 1)
	polluted := NewBTBEngine(g16, btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32)
	polluted.SetWrongPathPollution(true)
	return append(pipelineEngines(),
		NewNLSTableEngine(g16, 512, pht.NewGShare(1024, 6), 32), // grouped (g16)
		NewJohnsonEngine(g16), // grouped (g16)
		polluted,              // private: pollution forks cache state
		NewNLSCacheEngine(g64, 2, pht.NewGShare(1024, 6), 32), // grouped (g64)
		NewJohnsonEngine(g64), // grouped (g64)
		// grouped (g64), echoed from the first BTB engine
		NewBTBEngine(g64, btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32),
		NewNLSTableEngine(cache.MustGeometry(4*1024, 64, 2), 512, pht.NewGShare(1024, 6), 32), // private: alone in its geometry
	)
}

// TestBroadcastWorkersMatchRun is the replay schedule's differential: an
// engine set spanning several geometries and three line sizes, broadcast
// at several worker counts, leaves every engine with counters
// bit-identical to the per-record Run path, across workloads. Below one
// engine per unit the units also share direction-bit streams among their
// own members; the test asserts on the replay plan that followers are
// attached, so the parallel dir-share is covered.
func TestBroadcastWorkersMatchRun(t *testing.T) {
	for _, spec := range workload.All() {
		tr := spec.MustTrace(30_000)
		chunked := trace.Chunk(tr, 1024)
		oracle := mixedLineEngines()
		for _, e := range oracle {
			Run(e, tr)
		}
		for _, workers := range []int{1, 2, 3, 16} {
			engines := mixedLineEngines()
			p := newReplay(engines, workers)
			if len(p.lineBytes) != 3 {
				t.Fatalf("workers=%d: runs annotated for line sizes %v, want 3 sizes", workers, p.lineBytes)
			}
			followers := 0
			for _, sh := range p.shares {
				for _, fr := range sh.followers {
					if fr.dirShare == nil || fr.dirOwner {
						t.Errorf("%s workers=%d: dir-share follower %s not attached", spec.Name, workers, fr.Name())
					}
					followers++
				}
			}
			// 16 workers put every replaying engine in a unit of its own,
			// where no stream has a follower.
			if workers <= 3 && followers == 0 {
				t.Errorf("%s workers=%d: no engine follows a shared direction-bit stream", spec.Name, workers)
			}
			if n := p.run(chunked.Chunks()); n != int64(tr.Len()) {
				t.Fatalf("%s workers=%d: replayed %d records, want %d", spec.Name, workers, n, tr.Len())
			}
			for i, e := range engines {
				if got, wantC := *e.Counters(), *oracle[i].Counters(); got != wantC {
					t.Errorf("%s on %s workers=%d: counters diverge from Run\n got %+v\nwant %+v",
						e.Name(), spec.Name, workers, got, wantC)
				}
			}
		}
	}
}

// BenchmarkBroadcastOraclePipeline replays a multi-geometry engine set
// (three oracle groups annotating concurrently, one chunk ahead of the
// replay) with one replay unit and with two.
func BenchmarkBroadcastOraclePipeline(b *testing.B) {
	tr := workload.Gcc().MustTrace(300_000)
	chunked := trace.Chunk(tr, trace.DefaultChunkRecords)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engines := pipelineEngines()
				n, _ := BroadcastWorkers(chunked.Chunks(), workers, engines...)
				if n != int64(tr.Len()) {
					b.Fatalf("replayed %d records, want %d", n, tr.Len())
				}
			}
			steps := float64(len(pipelineEngines())) * float64(tr.Len()) * float64(b.N)
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(steps/s/1e6, "Mstep/s")
			}
		})
	}
}

// TestStressSlotRingAnnBufReuse hammers the annotation slot ring under
// randomized workloads, chunk sizes and worker counts while a churner
// goroutine recycles trace annotation buffers through the shared pools as
// fast as it can, poisoning every buffer it touches. If the ring ever
// released a slot still being replayed by some unit — or handed two chunks
// aliasing slots/events storage — the churner's poison (and, under -race
// via `make stress`, the detector) exposes it; the counters must stay
// bit-identical to the per-record Run path regardless.
func TestStressSlotRingAnnBufReuse(t *testing.T) {
	const seed = 0x6e6c7333
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %#x", seed)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := trace.GetAnnBuf(trace.DefaultChunkRecords)
			for i := range b {
				b[i] = 0xA5
			}
			trace.PutAnnBuf(b)
			e := trace.GetEvtBuf(trace.DefaultChunkRecords / 2)
			e = append(e, 0xA5A5A5A5)
			trace.PutEvtBuf(e)
		}
	}()
	defer churn.Wait()
	defer close(stop)

	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	specs := workload.All()
	for round := 0; round < rounds; round++ {
		spec := specs[rng.Intn(len(specs))]
		insns := 20_000 + rng.Intn(30_000)
		chunk := 256 << rng.Intn(4) // 256..2048
		workers := 1 + rng.Intn(8)  // 1..8
		tr := spec.MustTrace(insns)
		chunked := trace.Chunk(tr, chunk)

		engines, oracle := mixedLineEngines(), mixedLineEngines()
		if n, _ := BroadcastWorkers(chunked.Chunks(), workers, engines...); n != int64(tr.Len()) {
			t.Fatalf("round %d (%s, workers=%d): replayed %d records, want %d",
				round, spec.Name, workers, n, tr.Len())
		}
		for i, e := range oracle {
			want := *Run(e, tr)
			if got := *engines[i].Counters(); got != want {
				t.Errorf("round %d: %s on %s chunk=%d workers=%d diverges from Run\n got %+v\nwant %+v",
					round, engines[i].Name(), spec.Name, chunk, workers, got, want)
			}
		}
	}
}
