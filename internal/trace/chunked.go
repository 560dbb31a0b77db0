package trace

import "repro/internal/isa"

// This file adds the chunked trace representation behind the shared-replay
// sweep scheduler (DESIGN.md §7). A trace is split into fixed-size blocks
// of records so the executor and the replay machinery can hand simulators
// one block at a time: a sweep then needs O(chunk) live memory per stream
// instead of a fully materialized record slice, and a block that is hot in
// cache can be fanned out to many engines before the next one is touched.

// DefaultChunkRecords is the default records-per-chunk. At 16 bytes per
// Record a chunk is 64KB — small enough to stay resident in a per-core L2
// while every engine of a sweep cell replays it, large enough that the
// per-chunk dispatch overhead (one channel send and one dynamic call per
// engine) is amortized over thousands of records.
const DefaultChunkRecords = 4096

// A ChunkSource yields consecutive trace records one block at a time. It is
// the streaming counterpart of Source: the records of the successive
// non-empty blocks, concatenated, are the trace.
type ChunkSource interface {
	// NextChunk returns the next block of records, or an empty slice
	// when the source is exhausted. The returned slice must not be
	// modified and remains valid after further NextChunk calls, so
	// blocks can be handed to concurrent consumers without copying.
	NextChunk() []Record
}

// Chunked is an instruction trace stored as fixed-size blocks of records.
// All blocks hold exactly chunkSize records except the last, which may be
// shorter.
type Chunked struct {
	Name string
	// StaticCondSites mirrors Trace.StaticCondSites.
	StaticCondSites int

	chunkSize int
	blocks    [][]Record
	n         int
}

// Chunk splits a flat trace into blocks of chunkSize records without
// copying: the blocks alias the trace's record slice. chunkSize <= 0
// selects DefaultChunkRecords.
func Chunk(t *Trace, chunkSize int) *Chunked {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkRecords
	}
	recs := t.Records
	c := &Chunked{
		Name:            t.Name,
		StaticCondSites: t.StaticCondSites,
		chunkSize:       chunkSize,
		blocks:          make([][]Record, 0, (len(recs)+chunkSize-1)/chunkSize),
		n:               len(recs),
	}
	for len(recs) > 0 {
		k := chunkSize
		if k > len(recs) {
			k = len(recs)
		}
		c.blocks = append(c.blocks, recs[:k:k])
		recs = recs[k:]
	}
	return c
}

// Len returns the number of records.
func (c *Chunked) Len() int { return c.n }

// NumChunks returns the number of blocks.
func (c *Chunked) NumChunks() int { return len(c.blocks) }

// ChunkSize returns the nominal records-per-block.
func (c *Chunked) ChunkSize() int { return c.chunkSize }

// Block returns the i-th block. The caller must not modify it.
func (c *Chunked) Block(i int) []Record { return c.blocks[i] }

// Flatten copies the blocks back into a flat trace.
func (c *Chunked) Flatten() *Trace {
	t := &Trace{
		Name:            c.Name,
		StaticCondSites: c.StaticCondSites,
		Records:         make([]Record, 0, c.n),
	}
	for _, blk := range c.blocks {
		t.Records = append(t.Records, blk...)
	}
	return t
}

// BlockRuns writes the same-line run annotation of one block for
// lineBytes-sized cache lines into dst, growing it if short, and returns
// it. runs[i] counts the records immediately after record i that are
// non-branches lying in the same lineBytes-aligned line as record i — the
// records a replay may batch into one LRU-refreshing cache access after
// stepping record i — and is 0 whenever record i is a break. Runs never
// cross the block's end and are capped at 255 (a longer run simply
// continues under a new leader, which is still a pure sequential fetch).
//
// Every byte of the returned slice is written, so dst may be a reused
// buffer holding a previous block's runs. The annotation depends only on
// the records and the line size: the broadcast replay derives it once per
// chunk and line size and shares it with every engine and fetch oracle of
// that line size. lineBytes must be a power of two.
func BlockRuns(recs []Record, lineBytes int, dst []uint8) []uint8 {
	if cap(dst) < len(recs) {
		dst = make([]uint8, len(recs))
	}
	runs := dst[:len(recs)]
	if len(recs) == 0 {
		return runs
	}
	mask := ^isa.Addr(lineBytes - 1)
	runs[len(recs)-1] = 0
	for i := len(recs) - 2; i >= 0; i-- {
		r, nxt := recs[i], recs[i+1]
		if r.IsBreak() || nxt.Kind != isa.NonBranch || nxt.PC&mask != r.PC&mask {
			runs[i] = 0
		} else if n := runs[i+1]; n < 255 {
			runs[i] = n + 1
		} else {
			runs[i] = 255
		}
	}
	return runs
}

// RunLens returns BlockRuns of every block for lineBytes-sized lines,
// freshly computed on each call.
func (c *Chunked) RunLens(lineBytes int) [][]uint8 {
	all := make([][]uint8, len(c.blocks))
	for bi, blk := range c.blocks {
		all[bi] = BlockRuns(blk, lineBytes, nil)
	}
	return all
}

// Chunks returns a fresh iterator over the blocks. The iterator implements
// both ChunkSource and Source, so a chunked trace can drive anything a flat
// trace can.
func (c *Chunked) Chunks() *ChunkIter { return &ChunkIter{c: c} }

// ChunksRuns is Chunks. Run annotations are derived per chunk by the
// broadcast replay, so the line size is ignored.
func (c *Chunked) ChunksRuns(lineBytes int) *ChunkIter { return c.Chunks() }

// ChunkIter iterates a Chunked trace. It implements ChunkSource (block at a
// time) and Source (record at a time); the views share one cursor.
type ChunkIter struct {
	c     *Chunked
	block int
	off   int // record offset within the current block (Source view only)
}

// NextChunk implements ChunkSource. A block partially consumed through Run
// is finished first (its remaining records are returned as one short
// chunk).
func (it *ChunkIter) NextChunk() []Record {
	if it.block >= len(it.c.blocks) {
		return nil
	}
	blk := it.c.blocks[it.block][it.off:]
	it.block++
	it.off = 0
	return blk
}

// Run implements Source: it emits up to n records from the cursor.
func (it *ChunkIter) Run(n int, emit func(Record)) int {
	count := 0
	for count < n && it.block < len(it.c.blocks) {
		blk := it.c.blocks[it.block]
		for it.off < len(blk) && count < n {
			emit(blk[it.off])
			it.off++
			count++
		}
		if it.off == len(blk) {
			it.block++
			it.off = 0
		}
	}
	return count
}

// Reset rewinds the iterator to the first record.
func (it *ChunkIter) Reset() { it.block, it.off = 0, 0 }

// SourceChunks adapts any Source (for example an exec.Executor walking a
// synthetic program) into a ChunkSource bounded to a total record budget.
// Each NextChunk call draws up to chunkSize records into a freshly
// allocated block, so at any moment only the blocks still referenced by
// consumers are live: a streamed 2M-record run needs O(chunk) memory, not
// O(trace).
type SourceChunks struct {
	src       Source
	remaining int
	chunkSize int
}

// NewSourceChunks bounds src to total records in blocks of chunkSize
// (<= 0 selects DefaultChunkRecords).
func NewSourceChunks(src Source, total, chunkSize int) *SourceChunks {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkRecords
	}
	return &SourceChunks{src: src, remaining: total, chunkSize: chunkSize}
}

// NextChunk implements ChunkSource.
func (s *SourceChunks) NextChunk() []Record {
	if s.remaining <= 0 {
		return nil
	}
	k := s.chunkSize
	if k > s.remaining {
		k = s.remaining
	}
	blk := make([]Record, 0, k)
	got := s.src.Run(k, func(r Record) { blk = append(blk, r) })
	s.remaining -= k
	if got == 0 {
		s.remaining = 0 // source exhausted early
		return nil
	}
	return blk
}
