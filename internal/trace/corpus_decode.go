package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// PayloadChunks is the one decoder of the NLST record stream (format.go):
// it works straight off the encoded bytes, carrying the delta-decoder state
// from call to call. Read and Corpus.Trace materialize a whole stream
// through it (decodeTrace); Corpus.ChunkSource hands it out to stream a
// corpus program chunk by chunk, touching the mapped file sequentially and
// keeping O(chunk) decoded state live. It implements ChunkSource.
type PayloadChunks struct {
	// Name and StaticCondSites mirror the payload's trace header.
	Name            string
	StaticCondSites int

	buf       []byte
	pos       int
	remaining uint64 // records the header declares that are still undecoded
	chunkSize int
	// Delta-decoder state carried across chunks.
	prevPCWord, prevNextWord uint32
	err                      error
	rec                      uint64 // records decoded, for error positions
}

// newPayloadDecoder validates the payload's NLST header and returns a
// decoder positioned at the first record. The header's count is untrusted:
// a record takes at least one byte, so a count beyond the bytes left after
// the header is rejected here, and anything sized by the count is bounded
// by the input's length.
func newPayloadDecoder(payload []byte, chunkSize int) (*PayloadChunks, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkRecords
	}
	if len(payload) < len(formatMagic)+1 {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", errBadFormat, len(payload))
	}
	if string(payload[:len(formatMagic)]) != formatMagic {
		return nil, fmt.Errorf("%w: bad magic %q", errBadFormat, payload[:len(formatMagic)])
	}
	if ver := payload[len(formatMagic)]; ver != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errBadFormat, ver)
	}
	p := &PayloadChunks{buf: payload, pos: len(formatMagic) + 1, chunkSize: chunkSize}
	nameLen, err := p.uvarint("name length")
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 || nameLen > uint64(len(payload)-p.pos) {
		return nil, fmt.Errorf("%w: name length %d", errBadFormat, nameLen)
	}
	p.Name = string(payload[p.pos : p.pos+int(nameLen)])
	p.pos += int(nameLen)
	static, err := p.uvarint("static sites")
	if err != nil {
		return nil, err
	}
	count, err := p.uvarint("record count")
	if err != nil {
		return nil, err
	}
	if count > uint64(len(payload)-p.pos) {
		return nil, fmt.Errorf("%w: record count %d exceeds %d payload bytes", errBadFormat, count, len(payload)-p.pos)
	}
	p.StaticCondSites = int(static)
	p.remaining = count
	return p, nil
}

// decodeTrace decodes a whole NLST stream into a trace whose record slice
// is sized once, from the header's (length-bounded) count; a count the
// records do not bear out is an error, never a short trace.
func decodeTrace(data []byte) (*Trace, error) {
	p, err := newPayloadDecoder(data, 0)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: p.Name, StaticCondSites: p.StaticCondSites, Records: make([]Record, p.remaining)}
	if err := p.decode(t.Records); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of records the payload header declares.
func (p *PayloadChunks) Len() int { return int(p.remaining + p.rec) }

// Err reports the first decode error, if any; NextChunk returns nil both
// at clean exhaustion and on error.
func (p *PayloadChunks) Err() error { return p.err }

// NextChunk implements ChunkSource. Each chunk is freshly allocated and
// stays valid across further calls.
func (p *PayloadChunks) NextChunk() []Record {
	if p.err != nil || p.remaining == 0 {
		return nil
	}
	k := uint64(p.chunkSize)
	if k > p.remaining {
		k = p.remaining
	}
	recs := make([]Record, k)
	if err := p.decode(recs); err != nil {
		p.err = err
		p.remaining = 0
		return nil
	}
	return recs
}

// decode fills dst with the next len(dst) records, which must not exceed
// the records remaining. The loop works on local copies of the decoder
// state and stores them back once.
func (p *PayloadChunks) decode(dst []Record) error {
	buf, pos := p.buf, p.pos
	prevPC, prevNext := p.prevPCWord, p.prevNextWord
	for i := range dst {
		if pos >= len(buf) {
			return fmt.Errorf("%w: record %d: unexpected end of payload", errBadFormat, p.rec+uint64(i))
		}
		head := buf[pos]
		pos++
		kind := isa.Kind(head & 0x7)
		if !kind.Valid() {
			return fmt.Errorf("%w: record %d kind %d", errBadFormat, p.rec+uint64(i), kind)
		}
		taken := head&(1<<3) != 0
		pcWord := prevNext
		if head&(1<<4) == 0 {
			d, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return fmt.Errorf("%w: record %d pc delta", errBadFormat, p.rec+uint64(i))
			}
			pos += n
			pcWord = uint32(int64(prevPC) + d)
		}
		rec := Record{PC: isa.Addr(pcWord * isa.InstrBytes), Kind: kind, Taken: taken}
		if taken {
			d, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return fmt.Errorf("%w: record %d target delta", errBadFormat, p.rec+uint64(i))
			}
			pos += n
			rec.Target = isa.Addr(uint32(int64(pcWord)+d) * isa.InstrBytes)
		}
		dst[i] = rec
		prevPC = pcWord
		prevNext = rec.Next().Word()
	}
	p.pos, p.prevPCWord, p.prevNextWord = pos, prevPC, prevNext
	p.rec += uint64(len(dst))
	p.remaining -= uint64(len(dst))
	return nil
}

// uvarint reads one header varint.
func (p *PayloadChunks) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(p.buf[p.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s", errBadFormat, what)
	}
	p.pos += n
	return v, nil
}
