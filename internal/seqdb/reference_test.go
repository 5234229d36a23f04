package seqdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pattern"
)

// referenceNext is the record decoder without the one-byte fast path: every
// byte goes through uvarint. The differential tests require the decoder
// every scan uses to give its outcome on every input.
func referenceNext(r *recordReader, id int) ([]pattern.Symbol, int, error) {
	br := r.br
	l, raw, err := uvarint(br, r.raw[:0])
	if err != nil {
		return nil, 0, corrupt(r.path, id, "truncated length", err)
	}
	if l == 0 || l > MaxSequenceLen {
		return nil, 0, corrupt(r.path, id, fmt.Sprintf("invalid length %d", l), nil)
	}
	seq := r.seq[:0]
	for len(seq) < int(l) {
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

// decoder is the signature of the record decoder every scan calls.
type decoder = func(*recordReader, int) ([]pattern.Symbol, int, error)

// scanOutcome is what opening a file with OpenAuto and scanning it once
// gives: the open error, or the length opened, the sequences delivered and
// the scan error. Errors are kept as their messages, which name the kind
// (corruption or a read) and the sequence id.
type scanOutcome struct {
	open, scan string
	n          int
	seqs       [][]pattern.Symbol
}

// outcomeOf scans db with dec as the record decoder; a nil db is opened
// from path with OpenAuto first, under the same decoder.
func outcomeOf(path string, db Scanner, dec decoder) (o scanOutcome) {
	defer func(d decoder) { decode = d }(decode)
	decode = dec
	if db == nil {
		var err error
		if db, err = OpenAuto(path); err != nil {
			o.open = err.Error()
			return o
		}
	}
	o.n = db.Len()
	if err := db.Scan(func(_ int, seq []pattern.Symbol) error {
		o.seqs = append(o.seqs, slices.Clone(seq))
		return nil
	}); err != nil {
		o.scan = err.Error()
	}
	return o
}

// requireReferenceOutcome fails t unless the file at path gives the
// reference decoder's outcome. With db and ref nil the file is opened under
// each decoder; otherwise they are two handles opened on it before, the
// first scanned with the decoder and the second with the reference.
func requireReferenceOutcome(t *testing.T, path string, db, ref Scanner, what string) {
	t.Helper()
	got, want := outcomeOf(path, db, (*recordReader).next), outcomeOf(path, ref, referenceNext)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoder gives open %q, %d sequences, scan %q (%d delivered); reference open %q, %d sequences, scan %q (%d delivered)",
			what, got.open, got.n, got.scan, len(got.seqs), want.open, want.n, want.scan, len(want.seqs))
	}
}

// oneByteSeqs are sequences whose symbols are all below 128, so their
// records take the decoder's one-byte path; every fourth also holds a
// symbol of 128 or more, a two-byte uvarint.
func oneByteSeqs(n, length int) [][]pattern.Symbol {
	seqs := make([][]pattern.Symbol, n)
	for i := range seqs {
		s := make([]pattern.Symbol, 1+(i*5+length)%length)
		for j := range s {
			s[j] = pattern.Symbol((i*31 + j*7) % 128)
		}
		if i%4 == 3 {
			s[len(s)/2] = pattern.Symbol(128 + i)
		}
		seqs[i] = s
	}
	return seqs
}

// TestDecoderMatchesReferenceOnFlippedBits flips bits of each golden file,
// and every bit of a small file in every format whose records take the
// one-byte path, one bit at a time: each damaged file must give the
// reference decoder's outcome, the same sequences or the same error with
// the same sequence id. A flip past the header of an LSQ1, LSQ2 or LSQZ
// file leaves what OpenFile reads intact, so those files are scanned
// through handles opened on the intact file.
//
// Every bit of golden.lsq1, golden.lsq2 and golden.lsa is flipped. In
// golden.lsqz every bit of the LSQZ and gzip headers (22 bytes) and of the
// gzip trailer (8 bytes) is flipped, and every 11th bit of the deflate
// stream between them: each LSQZ pass allocates a 1 MiB buffer for the
// decompressed records, so flipping all 16,248 bits took 16 s, and the
// records that stream holds are golden.lsq1's, flipped bit by bit.
func TestDecoderMatchesReferenceOnFlippedBits(t *testing.T) {
	images := make(map[string][]byte)
	for _, golden := range []string{"golden.lsq1", "golden.lsq2", "golden.lsqz", "golden.lsa"} {
		raw, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		images[golden] = raw
	}
	for name, path := range writeFormats(t, t.TempDir(), oneByteSeqs(12, 9)) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		images["one-byte "+name] = raw
	}
	path := filepath.Join(t.TempDir(), "flipped")
	for name, img := range images {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		var db, ref Scanner
		if [4]byte(img[:4]) != appendMagic {
			var err error
			if db, err = OpenFile(path); err != nil {
				t.Fatal(err)
			}
			if ref, err = OpenFile(path); err != nil {
				t.Fatal(err)
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8*len(img); bit++ {
			at := int64(bit / 8)
			if name == "golden.lsqz" && at >= 22 && at < int64(len(img))-8 && bit%11 != 0 {
				continue
			}
			if _, err := f.WriteAt([]byte{img[at] ^ 1<<(bit%8)}, at); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s with bit %d flipped", name, bit)
			if at < 12 || db == nil {
				requireReferenceOutcome(t, path, nil, nil, what)
			} else {
				requireReferenceOutcome(t, path, db, ref, what)
			}
			if _, err := f.WriteAt(img[at:at+1], at); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecoderMatchesReferenceOnBufferEdges writes files in every format
// whose records meet the edges of the read buffer (maxReadBuffer): one
// record longer than the buffer, and 1.2 MiB of records, one of which
// straddles the buffer's first refill. Each file, and a copy with a bit
// flipped in the straddling record, must give the reference decoder's
// outcome.
func TestDecoderMatchesReferenceOnBufferEdges(t *testing.T) {
	long := make([]pattern.Symbol, maxReadBuffer+1000)
	for j := range long {
		long[j] = pattern.Symbol(j % 100)
	}
	cases := map[string][][]pattern.Symbol{
		"long record": {{1, 2, 3}, long, {4}},
		"refill":      oneByteSeqs(40000, 60),
	}
	for name, seqs := range cases {
		for format, path := range writeFormats(t, t.TempDir(), seqs) {
			what := name + " " + format
			requireReferenceOutcome(t, path, nil, nil, what)
			if format == "lsqz" {
				continue // a flipped deflate bit is gzip's to report
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[maxReadBuffer+3] ^= 0x10
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			requireReferenceOutcome(t, path, nil, nil, what+" with a flipped bit past the first buffer")
		}
	}
}
