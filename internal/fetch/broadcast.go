package fetch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// ringSlots is the number of annotated chunks in flight: the annotation
// goroutine fills one slot while the replay units drain the other, so it
// runs at most one chunk ahead of the slowest unit. Live memory of one
// broadcast is bounded by ringSlots+1 blocks (the slots plus the block
// drawn while waiting for a free slot) regardless of trace length, which
// is what lets a streamed sweep run in O(chunk) memory.
const ringSlots = 2

// member is one engine of a broadcast, resolved once for the whole replay:
// its broadcast index, its Frontend (nil when the engine embeds none), its
// oracle group (nil for private replay), and, for a private fused-path
// Frontend, the index of its line size among the slot's run annotations
// (-1 when it replays through StepBlock instead).
type member struct {
	idx  int
	e    Engine
	fr   *Frontend
	g    *oracleGroup
	runs int
}

// oracleGroup shares one fetch oracle among the eligible engines of equal
// geometry: the oracle simulates the group's i-cache once per block and
// every member consumes the resulting annotation.
type oracleGroup struct {
	oracle  *cache.Oracle
	members []*member
	// echoes are the engines of this geometry whose break metrics are
	// echoed from an equal-invariant leader in another group (see
	// Frontend.echoInvariant): they skip replay entirely and only receive
	// this group's per-block i-cache bulk credits.
	echoes []*Frontend
	// runs is the index of the group's line size among the slot's run
	// annotations.
	runs int
	// ann holds the group's reusable annotation for each ring slot.
	ann [ringSlots]cache.AccessAnnotations
}

// echoPair records one echoed engine and the replayed leader whose break
// metrics it adopts once the broadcast completes.
type echoPair struct {
	idx          int // the echo's broadcast index
	echo, leader *Frontend
}

// extractEchoes implements the cross-geometry echo dedup over a resolved
// group plan: among all grouped members, engines reporting equal
// echoInvariant keys produce bit-identical break metrics from the same
// trace regardless of their cache geometry, so the first one found (the
// plan is deterministic: groups in first-seen geometry order, members in
// engine order) replays for real and every later one is demoted to an
// echo — removed from its group's member list, bulk-credited from its
// group's annotation each block, and patched with the leader's metrics at
// the end.
func extractEchoes(groups []*oracleGroup) (pairs []echoPair) {
	leaders := make(map[string]*Frontend)
	for _, g := range groups {
		kept := g.members[:0]
		for _, m := range g.members {
			if key, ok := m.fr.echoInvariant(); ok {
				if lead := leaders[key]; lead != nil {
					g.echoes = append(g.echoes, m.fr)
					pairs = append(pairs, echoPair{idx: m.idx, echo: m.fr, leader: lead})
					continue
				}
				leaders[key] = m.fr
			}
			kept = append(kept, m)
		}
		g.members = kept
	}
	return pairs
}

// dirShare is one chunk's direction-prediction bit stream, recorded by
// the owner engine and replayed by its followers (one bit per break, in
// break order). Identically configured cold direction predictors fed the
// identical break stream are bit-identical state machines, so the bits —
// and every counter derived from them — match what each follower's own
// predictor would have computed.
type dirShare struct {
	bits []uint64
	n    int
}

func (d *dirShare) reset() { d.bits, d.n = d.bits[:0], 0 }
func (d *dirShare) push(taken bool) {
	if d.n&63 == 0 {
		d.bits = append(d.bits, 0)
	}
	if taken {
		d.bits[d.n>>6] |= 1 << (d.n & 63)
	}
	d.n++
}
func (d *dirShare) at(i int) bool { return d.bits[i>>6]>>(i&63)&1 != 0 }

// dirSharePlan pairs a stream's owner with its followers for the
// end-of-broadcast state hand-off.
type dirSharePlan struct {
	owner     *Frontend
	followers []*Frontend
}

// extractDirShares groups one replay unit's grouped members by
// direction-predictor configuration (Frontend.dirShareKey) and attaches
// each group with two or more engines to a shared bit stream; the first
// member in replay order becomes the owner, so its bits are always
// recorded before any follower consumes them. A unit replays its members
// one after another in fixed order, which is what makes the owner-first
// guarantee hold; streams never cross units, since units replay
// concurrently. Private engines never share: only the grouped replay
// (stepBlockEvents) starts each chunk's stream.
func extractDirShares(members []*member) []dirSharePlan {
	var plans []dirSharePlan
	owners := make(map[string]int)
	for _, m := range members {
		if m.g == nil {
			continue
		}
		key, ok := m.fr.dirShareKey()
		if !ok {
			continue
		}
		if pi, seen := owners[key]; seen {
			plans[pi].followers = append(plans[pi].followers, m.fr)
		} else {
			owners[key] = len(plans)
			plans = append(plans, dirSharePlan{owner: m.fr})
		}
	}
	kept := plans[:0]
	for _, p := range plans {
		if len(p.followers) == 0 {
			continue
		}
		ds := &dirShare{}
		p.owner.setDirShare(ds, true)
		for _, fr := range p.followers {
			fr.setDirShare(ds, false)
		}
		kept = append(kept, p)
	}
	return kept
}

// releaseDirShares detaches every engine from its shared stream and hands
// the owner's trained predictor state to the followers, leaving all of
// them exactly as if each had trained its own predictor.
func releaseDirShares(plans []dirSharePlan) {
	for _, p := range plans {
		src := p.owner.dirPredictor()
		p.owner.clearDirShare()
		for _, fr := range p.followers {
			fr.clearDirShare()
			fr.adoptDirState(src)
		}
	}
}

// replay is one broadcast's resolved plan. Eligible engines (a Frontend
// whose oracleGroup is ok) sharing a cache geometry with at least one
// other eligible engine form an oracleGroup and replay from the group's
// shared oracle annotation (stepBlockEvents). Every other engine —
// pollution-on, probed, prefetching, alone in its geometry (an oracle for
// one engine is pure overhead), or not a Frontend at all — replays
// privately: a fused-path Frontend from the slot's run annotation for its
// line size (stepBlockRuns), anything else through StepBlock. Echoed
// engines (extractEchoes) replay nowhere; the others are dealt
// round-robin in engine order onto min(workers, replaying engines) units.
type replay struct {
	groups []*oracleGroup
	// units holds each replay unit's members in fixed replay order: its
	// grouped members group by group, then its private engines, each in
	// engine order.
	units  [][]*member
	echoes []echoPair
	shares []dirSharePlan
	// lineBytes lists the distinct line sizes some oracle or private
	// engine reads run annotations for; runs[slot][k] holds the slot's
	// chunk annotated for lineBytes[k] (trace.BlockRuns), reused chunk
	// after chunk.
	lineBytes []int
	runs      [ringSlots][][]uint8
	// durs is each engine's replay wall time, by broadcast index.
	durs []time.Duration
}

// newReplay resolves the plan for engines at the given worker count and
// attaches the direction-bit streams; run releases them.
func newReplay(engines []Engine, workers int) *replay {
	p := &replay{durs: make([]time.Duration, len(engines))}
	ms := make([]member, len(engines))
	// Tentatively group every eligible engine by geometry, in engine order
	// (map only for lookup, so the plan is deterministic).
	groupOf := make(map[cache.Geometry]*oracleGroup)
	for i, e := range engines {
		m := &ms[i]
		*m = member{idx: i, e: e, runs: -1}
		if a, ok := e.(interface{ frontend() *Frontend }); ok {
			m.fr = a.frontend()
		}
		if m.fr == nil {
			continue
		}
		if geom, eligible := m.fr.oracleGroup(); eligible {
			g := groupOf[geom]
			if g == nil {
				g = &oracleGroup{oracle: cache.NewOracle(geom)}
				groupOf[geom] = g
				p.groups = append(p.groups, g)
			}
			g.members = append(g.members, m)
		}
	}
	// Demote singleton groups: simulating an oracle plus one mirror is
	// strictly more work than one private cache.
	kept := p.groups[:0]
	for _, g := range p.groups {
		if len(g.members) < 2 {
			continue
		}
		for _, m := range g.members {
			m.g = g
		}
		g.runs = p.runIndex(g.oracle.Geometry().LineBytes())
		kept = append(kept, g)
	}
	p.groups = kept
	p.echoes = extractEchoes(p.groups)
	for i := range ms {
		if m := &ms[i]; m.g == nil && m.fr != nil && !m.fr.decoupled() {
			m.runs = p.runIndex(m.fr.geom.LineBytes())
		}
	}
	for i := range p.runs {
		p.runs[i] = make([][]uint8, len(p.lineBytes))
	}

	// Deal the replaying engines round-robin, in engine order, onto the
	// units; echoes (unit -1) replay nowhere.
	unitOf := make([]int, len(engines))
	for _, e := range p.echoes {
		unitOf[e.idx] = -1
	}
	p.units = make([][]*member, min(max(workers, 1), len(engines)-len(p.echoes)))
	k := 0
	for i := range unitOf {
		if unitOf[i] == 0 {
			unitOf[i] = k % len(p.units)
			k++
		}
	}
	for _, g := range p.groups {
		for _, m := range g.members {
			p.units[unitOf[m.idx]] = append(p.units[unitOf[m.idx]], m)
		}
	}
	for i := range ms {
		if m := &ms[i]; m.g == nil {
			p.units[unitOf[i]] = append(p.units[unitOf[i]], m)
		}
	}
	for _, u := range p.units {
		p.shares = append(p.shares, extractDirShares(u)...)
	}
	return p
}

// runIndex returns the index of lineBytes among the run-annotated line
// sizes, adding it if new.
func (p *replay) runIndex(lineBytes int) int {
	for k, lb := range p.lineBytes {
		if lb == lineBytes {
			return k
		}
	}
	p.lineBytes = append(p.lineBytes, lineBytes)
	return len(p.lineBytes) - 1
}

// ringSlot names one annotated chunk: the block and the ring slot whose
// run and per-group annotation buffers hold its annotations.
type ringSlot struct {
	recs []trace.Record
	idx  int
}

// annotate derives the chunk's run annotation for every line size into
// slot idx, then runs every group's oracle over it, one goroutine per
// group (the groups share no mutable state), and bulk-credits each group's
// echoes from the fresh annotation. Echoes appear in no unit, so the
// annotation goroutine is their only writer.
func (p *replay) annotate(recs []trace.Record, idx int) {
	runs := p.runs[idx]
	for k, lb := range p.lineBytes {
		runs[k] = trace.BlockRuns(recs, lb, runs[k])
	}
	var wg sync.WaitGroup
	for _, g := range p.groups {
		wg.Add(1)
		go func(g *oracleGroup) {
			defer wg.Done()
			g.oracle.Annotate(recs, runs[g.runs], &g.ann[idx])
			for _, ef := range g.echoes {
				ef.echoCredit(len(recs), &g.ann[idx])
			}
		}(g)
	}
	wg.Wait()
}

// replayUnit feeds every slot from ready to unit u's members, in plan
// order, timing each member's call, and frees a slot once the last unit
// has finished it.
func (p *replay) replayUnit(u int, ready <-chan ringSlot, pending *[ringSlots]atomic.Int32, free chan<- int) {
	for s := range ready {
		t0 := time.Now()
		for _, m := range p.units[u] {
			switch {
			case m.g != nil:
				m.fr.stepBlockEvents(s.recs, &m.g.ann[s.idx])
			case m.runs >= 0:
				m.fr.stepBlockRuns(s.recs, p.runs[s.idx][m.runs])
			default:
				m.e.StepBlock(s.recs)
			}
			t1 := time.Now()
			p.durs[m.idx] += t1.Sub(t0)
			t0 = t1
		}
		if pending[s.idx].Add(-1) == 0 {
			free <- s.idx
		}
	}
}

// run replays every chunk of src through the plan and returns the number
// of records replayed. One annotation goroutine draws each block and
// annotates it into a free slot of a small ring, then hands the slot to
// every replay unit; since it only ever waits for a free slot, it
// annotates chunk k+1 while the units replay chunk k. A slot returns to
// the ring when the last unit finishes it. Unit 0 runs on the calling
// goroutine.
func (p *replay) run(src trace.ChunkSource) int64 {
	var (
		n       int64
		pending [ringSlots]atomic.Int32
		free    = make(chan int, ringSlots)
		ready   = make([]chan ringSlot, len(p.units))
	)
	for i := 0; i < ringSlots; i++ {
		free <- i
	}
	for u := range ready {
		ready[u] = make(chan ringSlot, ringSlots)
	}
	go func() {
		for recs := src.NextChunk(); len(recs) > 0; recs = src.NextChunk() {
			idx := <-free
			p.annotate(recs, idx)
			n += int64(len(recs))
			pending[idx].Store(int32(len(p.units)))
			for _, ch := range ready {
				ch <- ringSlot{recs, idx}
			}
		}
		for _, ch := range ready {
			close(ch)
		}
	}()
	var wg sync.WaitGroup
	for u := 1; u < len(p.units); u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			p.replayUnit(u, ready[u], &pending, free)
		}(u)
	}
	// Unit 0's channel closes only after the annotation goroutine's last
	// write, so n and the echo credits are visible once it drains.
	p.replayUnit(0, ready[0], &pending, free)
	wg.Wait()

	for _, g := range p.groups {
		for i := range g.ann {
			g.ann[i].Release()
		}
	}
	for _, e := range p.echoes {
		e.echo.adoptBreakMetrics(e.leader)
	}
	releaseDirShares(p.shares)
	return n
}

// BroadcastWorkers replays a trace ONCE through every engine, with at most
// workers replay goroutines, and returns the number of records replayed
// and each engine's replay wall time (parallel to engines). Each block
// drawn from src reaches every engine, so a sweep cell of E engines reads
// the records one time instead of E times, and every engine consumes the
// blocks strictly in trace order.
//
// There is one schedule at every worker count (see replay.run). Each
// engine is owned by exactly one unit for the whole replay, and each unit
// replays every slot in fixed plan order, so counters are deterministic
// and the units can share direction-bit streams among their own members
// (extractDirShares). An engine's wall time sums its own block calls; an
// echoed engine replays nothing and reads 0, and the run and oracle
// annotation passes are broadcast overhead attributed to no engine.
func BroadcastWorkers(src trace.ChunkSource, workers int, engines ...Engine) (int64, []time.Duration) {
	if len(engines) == 0 {
		return 0, nil
	}
	p := newReplay(engines, workers)
	return p.run(src), p.durs
}
