package fetch

import (
	"sync"
	"sync/atomic"

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

// annotated pairs a block with its optional shared run annotation.
type annotated struct {
	recs []trace.Record
	runs []uint8
}

// runStepper is the optional fast-path interface an engine satisfies to
// consume a RunChunkSource's shared annotations (all four built-in engines
// do, via base).
type runStepper interface {
	StepBlockRuns(recs []trace.Record, runs []uint8)
	ICache() *cache.Cache
}

// annStepper is the optional interface an engine satisfies to replay from
// a shared fetch oracle's access annotations instead of simulating its own
// i-cache (Frontend implements it; see DESIGN.md §11). OracleGroup gates
// eligibility: engines whose cache state is not a pure function of the
// trace — wrong-path pollution on, or a probe attached — report ok=false
// and keep the private-cache path.
type annStepper interface {
	StepBlockEvents(recs []trace.Record, ann *cache.AccessAnnotations)
	OracleGroup() (cache.Geometry, bool)
}

// groupMember is one grouped engine: its broadcast index (for unit
// assignment), its group, and its annotated-replay view.
type groupMember struct {
	idx int
	g   *oracleGroup
	as  annStepper
}

// oracleGroup shares one fetch oracle among the eligible engines of equal
// geometry: the oracle simulates the group's i-cache once per block and
// every member consumes the resulting annotation.
type oracleGroup struct {
	oracle  *cache.Oracle
	members []groupMember
	// echoes are the engines of this geometry whose break metrics are
	// echoed from an equal-invariant leader in another group (see
	// Frontend.EchoInvariant): they skip replay entirely and only receive
	// this group's per-block i-cache bulk credits.
	echoes []*Frontend
	// runsOK records that the source's shared run annotation was computed
	// for this geometry's line size; otherwise members (and the oracle)
	// scan line boundaries themselves, with runs forced nil so both sides
	// agree on run-leader positions.
	runsOK bool
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
// EchoInvariant keys produce bit-identical break metrics from the same
// trace regardless of their cache geometry, so the first one found (the
// plan is deterministic: groups in first-seen geometry order, members in
// engine order) replays for real and every later one is demoted to an
// echo — removed from its group's member list, bulk-credited from its
// group's annotation each block, and patched with the leader's metrics at
// the end. Wrapped engines opt in by forwarding EchoFrontend.
func extractEchoes(groups []*oracleGroup) (pairs []echoPair) {
	leaders := make(map[string]*Frontend)
	for _, g := range groups {
		kept := g.members[:0]
		for _, m := range g.members {
			if es, ok := m.as.(interface{ EchoFrontend() *Frontend }); ok {
				if fr := es.EchoFrontend(); fr != nil {
					if key, ok := fr.EchoInvariant(); ok {
						if lead := leaders[key]; lead != nil {
							g.echoes = append(g.echoes, fr)
							pairs = append(pairs, echoPair{idx: m.idx, echo: fr, leader: lead})
							continue
						}
						leaders[key] = fr
					}
				}
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

// extractDirShares groups one replay unit's members by direction-predictor
// configuration (Frontend.DirShareKey) and attaches each group with two or
// more engines to a shared bit stream; the first member in replay order
// becomes the owner, so its bits are always recorded before any follower
// consumes them. A unit replays its members one after another in fixed
// order, which is what makes the owner-first guarantee hold; streams never
// cross units, since units replay concurrently.
func extractDirShares(members []groupMember) []dirSharePlan {
	var plans []dirSharePlan
	owners := make(map[string]int)
	for _, m := range members {
		es, ok := m.as.(interface{ EchoFrontend() *Frontend })
		if !ok {
			continue
		}
		fr := es.EchoFrontend()
		if fr == nil {
			continue
		}
		key, ok := fr.DirShareKey()
		if !ok {
			continue
		}
		if pi, seen := owners[key]; seen {
			plans[pi].followers = append(plans[pi].followers, fr)
		} else {
			owners[key] = len(plans)
			plans = append(plans, dirSharePlan{owner: fr})
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

// replayUnit is one replay goroutine's share of the engines: its grouped
// members (group-major, engine order within a group) and its private
// engines (engine order), replayed in that fixed order for every slot.
type replayUnit struct {
	members []groupMember
	private []func(annotated)
}

// ringSlot names one annotated chunk: the block and the ring slot whose
// per-group annotation buffers hold its oracle annotations.
type ringSlot struct {
	blk annotated
	idx int
}

// annotate runs every group's oracle over blk into slot idx, one goroutine
// per group (the groups share no mutable state), and bulk-credits each
// group's echoes from the fresh annotation. Echoes appear in no unit, so
// the annotation goroutine is their only writer.
func annotate(groups []*oracleGroup, blk annotated, idx int) {
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *oracleGroup) {
			defer wg.Done()
			runs := blk.runs
			if !g.runsOK {
				runs = nil
			}
			g.oracle.Annotate(blk.recs, runs, &g.ann[idx])
			for _, ef := range g.echoes {
				ef.echoCredit(len(blk.recs), &g.ann[idx])
			}
		}(g)
	}
	wg.Wait()
}

// replay feeds every slot from ready to the unit's engines, in plan order,
// and frees a slot once the last unit has finished it.
func (u *replayUnit) replay(ready <-chan ringSlot, pending *[ringSlots]atomic.Int32, free chan<- int) {
	for s := range ready {
		for _, m := range u.members {
			m.as.StepBlockEvents(s.blk.recs, &m.g.ann[s.idx])
		}
		for _, p := range u.private {
			p(s.blk)
		}
		if pending[s.idx].Add(-1) == 0 {
			free <- s.idx
		}
	}
}

// replayPlan resolves how blocks are drawn and how each engine replays
// them. Eligible engines (annStepper with OracleGroup ok) sharing a cache
// geometry with at least one other eligible engine form an oracleGroup and
// replay via StepBlockEvents from the group's shared oracle. Every other
// engine — pollution-on, probed, non-Frontend, or alone in its geometry
// (an oracle for one engine is pure overhead) — replays privately: via
// StepBlockRuns when src annotates blocks for its line size, else via
// StepBlock. Echoed engines (extractEchoes) replay nowhere; the others
// round-robin in engine order onto min(workers, replaying engines) units.
func replayPlan(src trace.ChunkSource, engines []Engine, workers int) (next func() annotated, groups []*oracleGroup, units []replayUnit, echoes []echoPair) {
	rs, _ := src.(trace.RunChunkSource)
	if rs != nil && rs.RunLineBytes() > 0 {
		next = func() annotated {
			recs, runs := rs.NextChunkRuns()
			return annotated{recs, runs}
		}
	} else {
		rs = nil
		next = func() annotated { return annotated{recs: src.NextChunk()} }
	}

	// Tentatively group every eligible engine by geometry, in engine order
	// (map only for lookup, so the plan is deterministic).
	groupOf := make(map[cache.Geometry]*oracleGroup)
	for i, e := range engines {
		if as, ok := e.(annStepper); ok {
			if geom, eligible := as.OracleGroup(); eligible {
				g := groupOf[geom]
				if g == nil {
					g = &oracleGroup{
						oracle: cache.NewOracle(geom),
						runsOK: rs != nil && geom.LineBytes() == rs.RunLineBytes(),
					}
					groupOf[geom] = g
					groups = append(groups, g)
				}
				g.members = append(g.members, groupMember{idx: i, g: g, as: as})
			}
		}
	}
	// Demote singleton groups: simulating an oracle plus one mirror is
	// strictly more work than one private cache.
	grouped := make([]bool, len(engines))
	kept := groups[:0]
	for _, g := range groups {
		if len(g.members) < 2 {
			continue
		}
		for _, m := range g.members {
			grouped[m.idx] = true
		}
		kept = append(kept, g)
	}
	groups = kept
	echoes = extractEchoes(groups)

	// Deal the replaying engines round-robin, in engine order, onto the
	// units; echoes (unit -1) replay nowhere.
	unitOf := make([]int, len(engines))
	for _, p := range echoes {
		unitOf[p.idx] = -1
	}
	units = make([]replayUnit, min(max(workers, 1), len(engines)-len(echoes)))
	k := 0
	for i := range unitOf {
		if unitOf[i] == 0 {
			unitOf[i] = k % len(units)
			k++
		}
	}
	for _, g := range groups {
		for _, m := range g.members {
			u := &units[unitOf[m.idx]]
			u.members = append(u.members, m)
		}
	}
	for i, e := range engines {
		if grouped[i] {
			continue
		}
		u := &units[unitOf[i]]
		if re, ok := e.(runStepper); ok && rs != nil &&
			re.ICache().Geometry().LineBytes() == rs.RunLineBytes() {
			u.private = append(u.private, func(b annotated) { re.StepBlockRuns(b.recs, b.runs) })
		} else {
			u.private = append(u.private, func(b annotated) { e.StepBlock(b.recs) })
		}
	}
	return next, groups, units, echoes
}

// BroadcastWorkers replays a trace ONCE through every engine, with at most
// workers replay goroutines, and returns the number of records replayed.
// Each block drawn from src reaches every engine, so a sweep cell of E
// engines reads the records one time instead of E times, and every engine
// consumes the blocks strictly in trace order.
//
// There is one schedule at every worker count. One annotation goroutine
// draws each block and runs every oracle group's annotation pass into a
// free slot of a small ring, then hands the slot to every replay unit;
// since it only ever waits for a free slot, it annotates chunk k+1 while
// the units replay chunk k. Each engine is owned by exactly one unit for
// the whole replay, and each unit replays every slot in fixed plan order,
// so counters are deterministic and the units can share direction-bit
// streams among their own members (extractDirShares). A slot returns to
// the ring when the last unit finishes it. Unit 0 runs on the calling
// goroutine, so workers <= 1 replays there, one chunk behind the
// annotation.
func BroadcastWorkers(src trace.ChunkSource, workers int, engines ...Engine) int64 {
	if len(engines) == 0 {
		return 0
	}
	next, groups, units, echoes := replayPlan(src, engines, workers)
	var shares []dirSharePlan
	for _, u := range units {
		shares = append(shares, extractDirShares(u.members)...)
	}

	var (
		n       int64
		pending [ringSlots]atomic.Int32
		free    = make(chan int, ringSlots)
		ready   = make([]chan ringSlot, len(units))
	)
	for i := 0; i < ringSlots; i++ {
		free <- i
	}
	for u := range ready {
		ready[u] = make(chan ringSlot, ringSlots)
	}
	go func() {
		for blk := next(); len(blk.recs) > 0; blk = next() {
			idx := <-free
			annotate(groups, blk, idx)
			n += int64(len(blk.recs))
			pending[idx].Store(int32(len(units)))
			for _, ch := range ready {
				ch <- ringSlot{blk, idx}
			}
		}
		for _, ch := range ready {
			close(ch)
		}
	}()
	var wg sync.WaitGroup
	for u := 1; u < len(units); u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			units[u].replay(ready[u], &pending, free)
		}(u)
	}
	// Unit 0's channel closes only after the annotation goroutine's last
	// write, so n and the echo credits are visible once it drains.
	units[0].replay(ready[0], &pending, free)
	wg.Wait()

	for _, g := range groups {
		for i := range g.ann {
			g.ann[i].Release()
		}
	}
	for _, p := range echoes {
		p.echo.adoptBreakMetrics(p.leader)
	}
	releaseDirShares(shares)
	return n
}
