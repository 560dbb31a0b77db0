package cache

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// This file implements the shared fetch oracle behind the geometry-sharded
// broadcast replay (DESIGN.md §11). With wrong-path pollution off, every
// engine that shares a cache Geometry drives bit-identical i-cache state
// from the same trace, so a sweep cell of E same-geometry engines pays for
// the same LRU simulation E times. The Oracle runs that simulation ONCE per
// record block and publishes the per-record (hit, way) outcomes as an
// AccessAnnotations value; each engine in the geometry group then mirrors
// the outcomes into its own tags (Cache.ApplyFill + Cache.AddAccesses)
// instead of calling Cache.Access per record.

// Annotation slot encoding: bit 7 is the hit flag, the low bits are the way
// the accessed line resides in after the access (the fill victim on a
// miss). The set is not stored — it is a pure function of the record's PC
// and the group's shared Geometry (SetIndex), so consumers rederive it for
// free.
const (
	// AnnHit is set in an annotation slot when the access hit.
	AnnHit uint8 = 0x80
	// AnnWayMask extracts the way from an annotation slot (associativity
	// is at most 127 by far — the paper's maximum is 4).
	AnnWayMask uint8 = 0x7f
)

// Replay-event encoding: each element of AccessAnnotations.Events packs a
// record index with the flags saying why an annotated replay must visit it.
// Every record NOT in the event list is a hit the oracle already counted
// and a non-break the frontend's accounting ignores, so a member replays a
// block by walking the event list alone — no per-record scanning.
const (
	// EvtFill marks a missing access: the member applies the fill to its
	// tag mirror (Cache.ApplyFill).
	EvtFill uint32 = 1 << 0
	// EvtBreak marks a break record: the member runs its §6 break
	// accounting.
	EvtBreak uint32 = 1 << 1
	// EvtPost marks the record after a break (and the first record of
	// every block): the point where a deferred predictor update resolves
	// with this record's way.
	EvtPost uint32 = 1 << 2
	// EvtShift is the index shift above the flag bits.
	EvtShift = 3

	// EvtIdxBits is the width of the record-index field above the flags
	// (record blocks hold at most trace.DefaultChunkRecords = 4096
	// records; Annotate checks the bound). Break events carry the break
	// PC's set index in the bits above the field, so every replay engine
	// sharing the annotation reads the set instead of recomputing
	// Geometry.SetIndex per break.
	EvtIdxBits         = 13
	EvtIdxMask  uint32 = 1<<EvtIdxBits - 1
	EvtSetShift        = EvtShift + EvtIdxBits
)

// AccessAnnotations is the columnar access outcome of one record block
// under one cache geometry: one encoded (hit, way) slot per record, the
// packed replay-event list, plus the block's miss count so consumers can
// credit counters in bulk. Slots are written only for the records an
// engine's batched replay actually dispatches on — run leaders and breaks;
// the same-line followers a run annotation batches into one AccessRun
// always hit the leader's slot and their annotation bytes are left stale.
// Buffers are recycled through trace's annotation-buffer pools (see
// Release).
type AccessAnnotations struct {
	// Slots holds one encoded slot per record (AnnHit | way), valid at
	// run-leader and break positions only.
	Slots []uint8
	// Events is the block's replay-event list in record order: index<<
	// EvtShift | EvtFill/EvtBreak/EvtPost. Every indexed record is a run
	// leader, so its Slots entry is valid.
	Events []uint32
	// Misses is the number of block accesses that missed.
	Misses uint64
	// ColdMisses is the number of those misses that were compulsory
	// (first demand touch of the line; see Cache.ColdMisses).
	ColdMisses uint64
}

// Release returns the buffers to the shared pools. The annotation must
// not be used afterwards.
func (a *AccessAnnotations) Release() {
	trace.PutAnnBuf(a.Slots)
	a.Slots = nil
	trace.PutEvtBuf(a.Events)
	a.Events = nil
}

// Oracle replays record blocks through a private cache exactly as an
// engine's batched replay would (Access per leader/break, AccessRun per
// same-line run), annotating each block with the access outcomes. Because
// the oracle applies the identical access stream, its cache state — and
// therefore every (hit, way) it publishes and every fill it implies — is
// bit-identical to what each group member's private cache would have done.
type Oracle struct {
	c *Cache
	// runs backs the run annotation Annotate derives when given none.
	runs []uint8
}

// NewOracle builds a cold oracle for the geometry.
func NewOracle(g Geometry) *Oracle { return &Oracle{c: New(g)} }

// Geometry returns the geometry the oracle simulates.
func (o *Oracle) Geometry() Geometry { return o.c.Geometry() }

// Reset restores the oracle to its cold state.
func (o *Oracle) Reset() { o.c.Reset() }

// Annotate simulates one record block and fills ann with its access
// outcomes and replay events. runs is the block's same-line run annotation
// for this geometry's line size (trace.BlockRuns); nil runs derives it into
// a buffer the oracle reuses across calls. ann's buffers are grown from the
// trace annotation pools as needed and reused across calls.
func (o *Oracle) Annotate(recs []trace.Record, runs []uint8, ann *AccessAnnotations) {
	if len(recs) > 1<<EvtIdxBits {
		panic("cache: record block exceeds the event index field")
	}
	if runs == nil {
		o.runs = trace.BlockRuns(recs, o.c.geom.LineBytes(), o.runs)
		runs = o.runs
	}
	if cap(ann.Slots) < len(recs) {
		trace.PutAnnBuf(ann.Slots)
		ann.Slots = trace.GetAnnBuf(len(recs))
	}
	slots := ann.Slots[:len(recs)]
	ann.Slots = slots
	if ann.Events == nil {
		ann.Events = trace.GetEvtBuf(len(recs) / 2)
	}
	events := ann.Events[:0]
	c := o.c
	missBase := c.misses
	coldBase := c.coldMisses
	// Only the first record of a block is an EvtPost resolution point: a
	// break at the end of the PREVIOUS block may have deferred its update
	// here. Within the block, a break's deferred update resolves inline
	// at the break event itself — the successor's way is the next
	// record's slot, which the oracle always writes (the record after a
	// break is a fresh run leader).
	post := EvtPost
	for i := 0; i < len(recs); {
		r := recs[i]
		hit, way := c.Access(r.PC)
		s := uint8(way)
		flags := post
		post = 0
		if hit {
			s |= AnnHit
		} else {
			flags |= EvtFill
		}
		slots[i] = s
		i++
		if r.IsBreak() {
			// lastSet is r.PC's set index, fresh from the Access above.
			events = append(events,
				uint32(c.lastSet)<<EvtSetShift|uint32(i-1)<<EvtShift|flags|EvtBreak)
			continue
		}
		if flags != 0 {
			events = append(events, uint32(i-1)<<EvtShift|flags)
		}
		// The traversal of the engines' run-driven block replay
		// (fetch.Frontend.stepBlockRuns): batch each leader's same-line
		// run, and access the leaders of a straight-line stretch in turn.
		if n := uint64(runs[i-1]); n > 0 {
			set, w := c.LastSlot()
			c.AccessRun(set, w, n)
			i += int(n)
		}
		for i < len(recs) && recs[i].Kind == isa.NonBranch {
			if lhit, lway := c.Access(recs[i].PC); lhit {
				slots[i] = uint8(lway) | AnnHit
			} else {
				slots[i] = uint8(lway)
				events = append(events, uint32(i)<<EvtShift|EvtFill)
			}
			i++
			if n := uint64(runs[i-1]); n > 0 {
				set, w := c.LastSlot()
				c.AccessRun(set, w, n)
				i += int(n)
			}
		}
	}
	ann.Events = events
	ann.Misses = c.misses - missBase
	ann.ColdMisses = c.coldMisses - coldBase
}
