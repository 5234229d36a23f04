package seqdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/pattern"
)

// Every format stores a sequence as one record: its uvarint length, then
// that many uvarint symbols, then — in the checksummed formats (LSQ2, LSA1)
// — the CRC32-IEEE of those bytes as 4 little-endian bytes. appendRecord is
// the one encoder and recordReader the one decoder of that record.

// appendRecord appends seq's record to dst. It rejects an empty sequence and
// the eternal symbol, leaving dst as it was.
func appendRecord(dst []byte, seq []pattern.Symbol, checksum bool) ([]byte, error) {
	if len(seq) == 0 {
		return dst, fmt.Errorf("seqdb: empty sequence")
	}
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(seq)))
	for _, d := range seq {
		if d.IsEternal() {
			return dst[:start], fmt.Errorf("seqdb: sequence contains the eternal symbol")
		}
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	if checksum {
		dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	}
	return dst, nil
}

// recordReader decodes consecutive records from br. A damaged record is
// reported as a *CorruptError naming the sequence id it was read as; a
// failed read of the file (a readError) as an I/O error naming the same id.
type recordReader struct {
	br       *bufio.Reader
	path     string
	checksum bool
	raw      []byte           // the bytes of the record being decoded byte by byte
	seq      []pattern.Symbol // the last record's symbols
}

// decode decodes the next record of sequence id: every scan and index pass
// calls it. A variable only so that tests can run the reference decoder in
// its place.
var decode = (*recordReader).next

// maxPrealloc is how many symbols a record's declared length may allocate
// before they are read.
const maxPrealloc = 1 << 12

// errOverflow is binary.ReadUvarint's overflow error, which that package
// does not export.
var errOverflow = errors.New("seqdb: varint overflows a 64-bit integer")

// uvarint decodes one uvarint from br as binary.ReadUvarint does, appending
// the bytes it consumes to raw.
func uvarint(br *bufio.Reader, raw []byte) (uint64, []byte, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, raw, err
		}
		raw = append(raw, b)
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, raw, errOverflow
			}
			return x | uint64(b)<<s, raw, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, raw, errOverflow
}

// next decodes the record of sequence id and returns its symbols (valid
// until the next call) and its size in bytes.
//
// A record whose bytes are buffered whole, whose symbols are all below
// 0x80 (so each is a one-byte uvarint) and whose checksum holds is decoded
// straight from the read buffer. Any other record — a longer varint, a
// record not wholly buffered (one that straddles a refill, runs past the
// end of the file or is longer than the buffer), a checksum mismatch —
// goes through the byte-at-a-time decoder, which reports each fault, read
// errors included, with its kind and sequence id. The decoded slice and
// the recorded bytes live in locals while the record is read, not in
// fields reloaded per symbol.
func (r *recordReader) next(id int) ([]pattern.Symbol, int, error) {
	br := r.br
	l, raw, err := uvarint(br, r.raw[:0])
	if err != nil {
		return nil, 0, corrupt(r.path, id, "truncated length", err)
	}
	if l == 0 || l > MaxSequenceLen {
		return nil, 0, corrupt(r.path, id, fmt.Sprintf("invalid length %d", l), nil)
	}
	if seq, ok := r.oneByte(raw, int(l)); ok {
		r.raw = raw
		return seq, len(raw) + len(seq) + r.tail(), nil
	}
	seq := r.seq[:0]
	for len(seq) < int(l) {
		// Decode into at most the capacity at hand, maxPrealloc symbols or
		// twice what is decoded, whichever is most: a damaged length field
		// then allocates no more than about twice the symbols the record
		// really holds.
		n := min(int(l), max(cap(seq), maxPrealloc, 2*len(seq)))
		seq = slices.Grow(seq, n-len(seq))
		chunk := seq[len(seq):n]
		for j := range chunk {
			var v uint64
			if v, raw, err = uvarint(br, raw); err != nil {
				return nil, 0, corrupt(r.path, id, fmt.Sprintf("truncated at symbol %d", len(seq)+j), err)
			}
			chunk[j] = pattern.Symbol(v)
		}
		seq = seq[:n]
	}
	r.seq, r.raw = seq, raw
	if !r.checksum {
		return seq, len(raw), nil
	}
	stored, err := br.Peek(4)
	if err != nil {
		return nil, 0, corrupt(r.path, id, "truncated checksum", err)
	}
	if got, want := crc32.ChecksumIEEE(raw), binary.LittleEndian.Uint32(stored); got != want {
		return nil, 0, corrupt(r.path, id, fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want), nil)
	}
	br.Discard(4)
	return seq, len(raw) + 4, nil
}

// tail is the size of a record's checksum: 4 bytes, or none.
func (r *recordReader) tail() int {
	if r.checksum {
		return 4
	}
	return 0
}

// oneByte is next's fast path for a record of l symbols whose length bytes
// lenBytes are read: when the symbol bytes and the checksum are buffered,
// every symbol byte is below 0x80 and the checksum holds, it converts the
// bytes and consumes the record. Otherwise it consumes nothing and reports
// false. It never reads the file: the byte-at-a-time path then meets every
// read, and every error, where the reference decoder does.
func (r *recordReader) oneByte(lenBytes []byte, l int) ([]pattern.Symbol, bool) {
	n := l + r.tail()
	if n > r.br.Buffered() {
		return nil, false
	}
	body, _ := r.br.Peek(n) // buffered, so no read and no error
	seq := slices.Grow(r.seq[:0], l)[:l]
	r.seq = seq
	var high byte
	for i, b := range body[:l] {
		seq[i] = pattern.Symbol(b)
		high |= b
	}
	if high >= 0x80 {
		return nil, false
	}
	if r.checksum {
		sum := crc32.Update(crc32.ChecksumIEEE(lenBytes), crc32.IEEETable, body[:l])
		if sum != binary.LittleEndian.Uint32(body[l:]) {
			return nil, false
		}
	}
	r.br.Discard(n)
	return seq, true
}

// isTornTail reports whether a record decode failure is consistent with a
// torn final record or trailing garbage (anything the checksummed format
// detects), as opposed to an I/O error worth surfacing.
func isTornTail(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce) && (ce.Err == nil || errors.Is(ce.Err, io.EOF) || errors.Is(ce.Err, io.ErrUnexpectedEOF))
}
