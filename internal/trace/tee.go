package trace

// TeeChunks wraps a chunk source so every drawn block is also handed to
// observe, in order, before the consumer sees it. This is how the grid
// executor derives per-program statistics (StatsCollector, fetch-block
// counts) from the same single trace read that drives the broadcast replay:
// the broadcaster draws blocks through the tee, and the observer runs on
// the drawing goroutine, serialized with the draws. The broadcast derives
// its run annotations from the drawn blocks themselves, so a tee costs the
// replay no fast path.
func TeeChunks(src ChunkSource, observe func([]Record)) ChunkSource {
	return &teeChunks{src: src, observe: observe}
}

type teeChunks struct {
	src     ChunkSource
	observe func([]Record)
}

// NextChunk implements ChunkSource.
func (t *teeChunks) NextChunk() []Record {
	blk := t.src.NextChunk()
	if len(blk) > 0 {
		t.observe(blk)
	}
	return blk
}
