package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// corpusTrace builds a random well-formed chained trace for corpus tests.
func corpusTrace(name string, n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: name, StaticCondSites: n / 10}
	pc := isa.Addr(0x1000)
	for i := 0; i < n; i++ {
		kind := isa.Kind(rng.Intn(int(isa.NumKinds)))
		r := Record{PC: pc, Kind: kind}
		switch {
		case kind == isa.NonBranch:
		case kind == isa.CondBranch && rng.Intn(2) == 0:
		default:
			r.Taken = true
			r.Target = isa.Addr(uint32(0x1000+4*rng.Intn(1<<16)) &^ 3)
		}
		tr.Append(r)
		pc = r.Next()
	}
	return tr
}

func writeTestCorpus(t *testing.T, path string, traces []*Trace) {
	t.Helper()
	w, err := CreateCorpus(path)
	if err != nil {
		t.Fatalf("CreateCorpus: %v", err)
	}
	for _, tr := range traces {
		if err := w.Add(tr); err != nil {
			t.Fatalf("Add(%s): %v", tr.Name, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	traces := []*Trace{
		corpusTrace("alpha", 500, 1),
		corpusTrace("beta", 3000, 2),
		{Name: "empty"},
	}
	path := filepath.Join(t.TempDir(), "test.nlsc")
	writeTestCorpus(t, path, traces)

	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	defer c.Close()

	progs := c.Programs()
	if len(progs) != len(traces) {
		t.Fatalf("Programs: %d entries, want %d", len(progs), len(traces))
	}
	for i, tr := range traces {
		if progs[i].Name != tr.Name || progs[i].Records != len(tr.Records) {
			t.Errorf("index entry %d: %q/%d, want %q/%d",
				i, progs[i].Name, progs[i].Records, tr.Name, len(tr.Records))
		}
		got, err := c.Trace(tr.Name)
		if err != nil {
			t.Fatalf("Trace(%s): %v", tr.Name, err)
		}
		if got.Name != tr.Name || got.StaticCondSites != tr.StaticCondSites {
			t.Errorf("%s: metadata lost: %q %d", tr.Name, got.Name, got.StaticCondSites)
		}
		if len(got.Records) != len(tr.Records) {
			t.Fatalf("%s: %d records, want %d", tr.Name, len(got.Records), len(tr.Records))
		}
		for j := range tr.Records {
			if got.Records[j] != tr.Records[j] {
				t.Fatalf("%s: record %d changed in corpus roundtrip", tr.Name, j)
			}
		}
	}

	if _, err := c.Trace("nonexistent"); err == nil {
		t.Error("Trace on a missing program succeeded")
	}
}

// TestCorpusChunkSource drains the streaming decoder at several chunk
// sizes and checks the concatenated chunks reproduce the trace exactly,
// including chunks straddling every internal decoder-state boundary.
func TestCorpusChunkSource(t *testing.T) {
	tr := corpusTrace("stream", 2500, 3)
	path := filepath.Join(t.TempDir(), "stream.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})

	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	defer c.Close()

	for _, chunk := range []int{1, 7, 1024, 2500, 4096, 0} {
		src, err := c.ChunkSource("stream", chunk)
		if err != nil {
			t.Fatalf("ChunkSource(chunk=%d): %v", chunk, err)
		}
		p := src.(*PayloadChunks)
		if p.Name != tr.Name || p.StaticCondSites != tr.StaticCondSites || p.Len() != len(tr.Records) {
			t.Errorf("chunk=%d: header %q/%d/%d, want %q/%d/%d", chunk,
				p.Name, p.StaticCondSites, p.Len(),
				tr.Name, tr.StaticCondSites, len(tr.Records))
		}
		// Hold every chunk: the contract says chunks stay valid across
		// further NextChunk calls.
		var held [][]Record
		for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
			held = append(held, blk)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("chunk=%d: decode error: %v", chunk, err)
		}
		i := 0
		for _, blk := range held {
			for _, r := range blk {
				if r != tr.Records[i] {
					t.Fatalf("chunk=%d: record %d changed in streaming decode", chunk, i)
				}
				i++
			}
		}
		if i != len(tr.Records) {
			t.Fatalf("chunk=%d: decoded %d records, want %d", chunk, i, len(tr.Records))
		}
	}
}

// TestCorpusDetectsCorruption flips every byte of a small corpus in turn:
// each corrupted image must either fail to open, fail to decode, or decode
// to the identical records — silent corruption is the only failure.
func TestCorpusDetectsCorruption(t *testing.T) {
	tr := corpusTrace("c", 64, 4)
	path := filepath.Join(t.TempDir(), "c.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for off := range orig {
		data := bytes.Clone(orig)
		data[off] ^= 0xFF
		c, err := OpenCorpusBytes(data)
		if err != nil {
			continue
		}
		got, err := c.Trace("c")
		if err != nil {
			continue
		}
		if got.Name != tr.Name || len(got.Records) != len(tr.Records) {
			t.Fatalf("byte %d corrupted silently (metadata)", off)
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				t.Fatalf("byte %d corrupted record %d silently", off, i)
			}
		}
	}
}

func TestCorpusTruncationRejected(t *testing.T) {
	tr := corpusTrace("t", 128, 5)
	path := filepath.Join(t.TempDir(), "t.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, len(corpusMagic), len(orig) / 2, len(orig) - 1} {
		if _, err := OpenCorpusBytes(orig[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestCorpusTraceAllocatesOnce: materializing a corpus program sizes its
// record slice once, from the header's count, so a long trace allocates
// little beyond its decoded records; growing the slice by append would
// allocate about three times as much.
func TestCorpusTraceAllocatesOnce(t *testing.T) {
	const n = 2_000_000
	tr := corpusTrace("long", n, 9)
	path := filepath.Join(t.TempDir(), "long.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := c.Trace("long")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("decoded %d records, want %d", got.Len(), n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	limit := uint64(105*unsafe.Sizeof(Record{})*n/100 + 1<<20)
	if alloc > limit {
		t.Errorf("Corpus.Trace allocated %d bytes for %d records, want at most %d", alloc, n, limit)
	}
}

// nlstHeader encodes an NLST trace header claiming count records.
func nlstHeader(name string, static, count int) []byte {
	b := []byte(formatMagic)
	b = append(b, formatVersion)
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, uint64(static))
	return binary.AppendUvarint(b, uint64(count))
}

// TestLyingRecordCountRejected: a header claiming more records than its
// payload encodes is an error from every decode path, never a short trace.
// The corpus around the payload is well formed (payload CRC and index
// recomputed, the index agreeing with the lying header), so only the
// decoder can catch it.
func TestLyingRecordCountRejected(t *testing.T) {
	tr := corpusTrace("liar", 200, 10)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[len(nlstHeader(tr.Name, tr.StaticCondSites, len(tr.Records))):]
	if len(body) <= len(tr.Records) {
		t.Fatalf("test trace encodes %d records in %d bytes; want some multi-byte records", len(tr.Records), len(body))
	}
	// The first two claims fit in the payload's byte length, so they
	// fail only when the decoder runs out of bytes; the last exceeds it
	// and is rejected from the header alone.
	for _, claim := range []int{len(tr.Records) + 1, len(body), len(body) + 1} {
		payload := append(nlstHeader(tr.Name, tr.StaticCondSites, claim), body...)
		if got, err := Read(bytes.NewReader(payload)); err == nil {
			t.Errorf("claim %d: Read returned %d records and no error", claim, got.Len())
		}

		path := filepath.Join(t.TempDir(), "liar.nlsc")
		w, err := CreateCorpus(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.addPayload(tr.Name, claim, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCorpus(path)
		if err != nil {
			t.Fatalf("claim %d: OpenCorpus: %v", claim, err)
		}
		if got, err := c.Trace(tr.Name); err == nil {
			t.Errorf("claim %d: Corpus.Trace returned %d records and no error", claim, got.Len())
		}
		if src, err := c.ChunkSource(tr.Name, 64); err == nil {
			n := 0
			for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
				n += len(blk)
			}
			if src.(*PayloadChunks).Err() == nil {
				t.Errorf("claim %d: ChunkSource drained %d records and no error", claim, n)
			}
		}
		c.Close()
	}
}

// TestCorpusWriterAtomic: an aborted or failed write never leaves a file
// at the final path, and a Close makes the file appear complete.
func TestCorpusWriterAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.nlsc")
	w, err := CreateCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(corpusTrace("x", 32, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corpus visible at final path before Close (stat err %v)", err)
	}
	w.Abort()
	assertDirHolds(t, dir)

	writeTestCorpus(t, path, []*Trace{corpusTrace("x", 32, 6)})
	assertDirHolds(t, dir, "a.nlsc")
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	c.Close()
}

// assertDirHolds fails unless dir holds exactly the named files: a writer
// must leave no stray temp file behind.
func assertDirHolds(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("directory holds %v, want %v", got, names)
	}
}

// TestStressConcurrentCorpusBuild: eight goroutines build the same corpus
// path at once, as concurrent sweep jobs over one program set do. Every
// build must succeed (each writes its own temp file; the renames race
// harmlessly, since every build writes identical bytes), the survivor must
// decode to the same records, and no temp file may be left behind.
func TestStressConcurrentCorpusBuild(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.nlsc")
	traces := []*Trace{corpusTrace("alpha", 3000, 1), corpusTrace("beta", 2000, 2)}

	const builders = 8
	errs := make(chan error, builders)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < builders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			w, err := CreateCorpus(path)
			if err != nil {
				errs <- err
				return
			}
			for _, tr := range traces {
				if err := w.Add(tr); err != nil {
					w.Abort()
					errs <- err
					return
				}
			}
			errs <- w.Close()
		}()
	}
	start.Done()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("concurrent build: %v", err)
		}
	}

	assertDirHolds(t, dir, "shared.nlsc")
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	defer c.Close()
	for _, tr := range traces {
		got, err := c.Trace(tr.Name)
		if err != nil {
			t.Fatalf("Trace(%s): %v", tr.Name, err)
		}
		if len(got.Records) != len(tr.Records) {
			t.Fatalf("%s: %d records, want %d", tr.Name, len(got.Records), len(tr.Records))
		}
		for j := range tr.Records {
			if got.Records[j] != tr.Records[j] {
				t.Fatalf("%s: record %d differs after concurrent builds", tr.Name, j)
			}
		}
	}
}

// FuzzCorpusRead exercises the corpus header/index parser and both decode
// paths with arbitrary bytes: no input may panic or demand an allocation
// not bounded by the input size, and anything accepted must decode
// consistently between the materializing and streaming readers.
func FuzzCorpusRead(f *testing.F) {
	seedCorpus := func(traces []*Trace) []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, "seed.nlsc")
		w, err := CreateCorpus(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, tr := range traces {
			if err := w.Add(tr); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seedCorpus([]*Trace{corpusTrace("a", 100, 7), corpusTrace("b", 40, 8)}))
	f.Add(seedCorpus(nil))
	f.Add([]byte(corpusMagic))
	f.Add([]byte(corpusTail))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := OpenCorpusBytes(data)
		if err != nil {
			return // rejection is fine; panics and OOM are not
		}
		for _, p := range c.Programs() {
			tr, err := c.Trace(p.Name)
			if err != nil {
				continue
			}
			src, err := c.ChunkSource(p.Name, 64)
			if err != nil {
				t.Fatalf("Trace accepted %q but ChunkSource rejected it: %v", p.Name, err)
			}
			i := 0
			for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
				for _, r := range blk {
					if i >= len(tr.Records) || r != tr.Records[i] {
						t.Fatalf("program %q: streaming decode diverges at record %d", p.Name, i)
					}
					i++
				}
			}
			if err := src.(*PayloadChunks).Err(); err != nil {
				t.Fatalf("Trace accepted %q but streaming decode failed: %v", p.Name, err)
			}
			if i != len(tr.Records) {
				t.Fatalf("program %q: streaming decode yielded %d records, want %d", p.Name, i, len(tr.Records))
			}
		}
	})
}
