package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format.
//
// Traces compress extremely well with delta encoding because instruction
// streams are mostly sequential. The format is:
//
//	magic   [4]byte  "NLST"
//	version uint8    (1)
//	name    uvarint length + bytes
//	static  uvarint  (static conditional sites, 0 if unknown)
//	count   uvarint  (number of records)
//	records:
//	  head byte: kind (3 bits) | taken (1 bit, bit 3) | seq (1 bit, bit 4)
//	    seq=1 means PC == previous record's successor (the common case);
//	    otherwise a signed varint word delta from the previous PC follows.
//	  if taken: signed varint word delta of Target from PC.
//
// Word deltas (address/4) keep varints short.

const (
	formatMagic   = "NLST"
	formatVersion = 1
)

// errBadFormat reports a malformed trace file.
var errBadFormat = errors.New("trace: malformed trace file")

// Write serializes the trace to w in the binary format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(formatMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(formatVersion); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(t.Name)))
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	writeUvarint(bw, uint64(t.StaticCondSites))
	writeUvarint(bw, uint64(len(t.Records)))
	var prevNextWord uint32 // successor of the previous record, in words
	var prevPCWord uint32
	for i, r := range t.Records {
		head := byte(r.Kind) & 0x7
		if r.Taken {
			head |= 1 << 3
		}
		seq := i > 0 && r.PC.Word() == prevNextWord
		if seq {
			head |= 1 << 4
		}
		if err := bw.WriteByte(head); err != nil {
			return err
		}
		if !seq {
			writeVarint(bw, int64(r.PC.Word())-int64(prevPCWord))
		}
		if r.Taken {
			writeVarint(bw, int64(r.Target.Word())-int64(r.PC.Word()))
		}
		prevPCWord = r.PC.Word()
		prevNextWord = r.Next().Word()
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write. It reads r to the end, then
// decodes the bytes in one pass through the payload decoder
// (corpus_decode.go), so the record slice is sized once from the header's
// count, bounded by the input's length.
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return decodeTrace(data)
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}
