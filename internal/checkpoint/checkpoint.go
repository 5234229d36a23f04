// Package checkpoint persists the three-phase mining pipeline's progress as
// a versioned, CRC32-checksummed, crash-atomic on-disk snapshot, so a run
// killed late in Phase 3 — after the most expensive full database scans —
// can be resumed without repeating any completed scan.
//
// The format is sectioned: a fixed header, then tagged sections (meta,
// phase1, phase2, probe) each carrying its own length and CRC32-IEEE over
// its payload, then an end marker. A flipped byte or truncation anywhere is
// detected and reported as a *CorruptError naming the damaged section, so a
// resumer never trusts a torn snapshot. Writes go through AtomicWrite
// (temp file + fsync + rename), which the seqdb stores share, so a crash
// mid-checkpoint leaves the previous snapshot intact.
//
// What is recorded mirrors the pipeline's phase structure:
//
//   - meta: config hash, database identity (path + length), engine, RNG
//     seed and the number of draws Phase 1 consumed — enough to verify a
//     resume is compatible and to restore the RNG to its exact
//     post-Phase-1 state.
//   - phase1: every symbol's exact match and the drawn sample, verbatim.
//   - phase2: the sample-mining labels, values and restricted spreads of
//     every evaluated candidate, plus the per-level counters — the borders
//     (FQT, ceiling) are deterministic functions of these and are
//     recomputed on resume.
//   - probe: Phase 3's probe-loop state after the last completed scan —
//     exact matches measured so far, the frequent set as propagated, and
//     the still-pending region.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/pattern"
)

// Format constants.
var (
	magic = [4]byte{'L', 'C', 'K', 'P'}
)

const (
	version = 1

	secMeta   = 1
	secPhase1 = 2
	secPhase2 = 3
	secProbe  = 4
	secStream = 5
	secEnd    = 0xFF

	// maxStringLen bounds any single string read from disk, so a corrupt
	// length field cannot trigger an unbounded allocation.
	maxStringLen = 1 << 20
	// maxSequenceLen bounds one sample sequence (mirrors seqdb's cap).
	maxSequenceLen = 1 << 24
	// initialAlloc caps the capacity pre-allocated from an on-disk count;
	// larger collections grow by append as real data arrives.
	initialAlloc = 1 << 12
)

// CorruptError reports a damaged or malformed snapshot: a bad magic or
// version, a checksum mismatch, a truncated payload, or an out-of-range
// field. Section names the part of the file that failed.
type CorruptError struct {
	// Section is the snapshot section that failed ("header", "meta",
	// "phase1", "phase2", "probe", or "trailer").
	Section string
	// Msg describes the damage.
	Msg string
	// Err is the underlying error, when one exists.
	Err error
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("checkpoint: %s section: %s: %v", e.Section, e.Msg, e.Err)
	}
	return fmt.Sprintf("checkpoint: %s section: %s", e.Section, e.Msg)
}

func (e *CorruptError) Unwrap() error { return e.Err }

func corrupt(section, msg string, err error) error {
	return &CorruptError{Section: section, Msg: msg, Err: err}
}

// Phase2State is the serializable core of Phase 2's mining result: the
// classification of every evaluated candidate, keyed by pattern.Key. The
// frequent/ambiguous sets and both borders are recomputed from Labels on
// resume (they are deterministic functions of it).
type Phase2State struct {
	Values             map[string]float64
	Spreads            map[string]float64
	Labels             map[string]uint8 // 0 infrequent, 1 ambiguous, 2 frequent
	CandidatesPerLevel []int
	AlivePerLevel      []int
	Truncated          bool
}

// ProbeState is Phase 3's probe-and-propagate loop state after its last
// completed scan: everything needed to continue collapsing without
// re-probing.
type ProbeState struct {
	// Scans and Probed count the completed probe scans and patterns probed.
	Scans  int
	Probed int
	// Exact records the measured database match of every probed pattern.
	Exact map[string]float64
	// Frequent is the frequent set as propagated so far (sample-frequent
	// plus confirmed probes plus Apriori-propagated subpatterns).
	Frequent []string
	// Pending is the still-unresolved region.
	Pending []string
}

// StreamState is the incremental streaming session's progress beyond the
// phase sections: the consumed window, the raw Phase 1 symbol sums (the
// pre-division form a restored accumulator continues from), and the exact
// window sum of every probed pattern. The reservoir sample itself rides in
// the phase1 section and the live mine in the phase2 section; reservoir
// draws are stateless, so no RNG state is recorded.
//
// The section's layout keeps a map of sample sums between the symbol sums
// and the exact sums. Writers emit it empty; readers read and drop it, so
// snapshots whose map is full still load.
type StreamState struct {
	// Cursor and WindowStart delimit the consumed window [WindowStart, Cursor).
	Cursor, WindowStart int
	// SymbolSums are the accumulator's raw per-symbol sums over the window.
	SymbolSums []float64
	// ExactSums holds the exact window match sum per probed pattern.
	ExactSums map[string]float64
}

// Snapshot is one pipeline checkpoint. Phase is the highest phase fully
// recorded: 1 (symbol matches + sample), 2 (adds the sample-mining result),
// or 3 (adds probe progress; the Probe section may record zero scans).
type Snapshot struct {
	// ConfigHash fingerprints the mining configuration; Resume refuses a
	// snapshot whose hash differs from the config it was given.
	ConfigHash uint64
	// DBPath and DBLen identify the database the snapshot was mined from.
	// DBPath is empty for in-memory stores; when both sides know a path
	// they must agree.
	DBPath string
	DBLen  int
	// Engine names the Phase 2 engine ("candidates" or "sweep").
	Engine string
	// Seed is the RNG seed the run was started with (as reported by the
	// caller) and RngDraws the number of rng draws Phase 1 consumed;
	// together they restore the generator to its exact post-Phase-1 state.
	Seed     int64
	RngDraws uint64
	// Phase is the highest fully recorded phase (1..3).
	Phase int

	// Phase 1 output.
	SymbolMatch []float64
	Sample      [][]pattern.Symbol

	// Phase 2 output (nil when Phase < 2).
	Phase2 *Phase2State

	// Phase 3 progress (nil when Phase < 3).
	Probe *ProbeState

	// Stream is the incremental streaming session's state (nil for batch
	// runs). A stream snapshot records Phase 1 (sample + symbol matches)
	// plus, when a mine is live, Phase 2; probe progress is carried by
	// Stream.ExactSums rather than a probe section.
	Stream *StreamState
}

// sectionWriter accumulates one section's payload.
type sectionWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *sectionWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *sectionWriter) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *sectionWriter) float(f float64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], math.Float64bits(f))
	w.buf.Write(w.tmp[:8])
}

func (w *sectionWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *sectionWriter) floatMap(m map[string]float64) {
	w.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		w.str(k)
		w.float(m[k])
	}
}

// sortedKeys returns m's keys in sorted order, so snapshots are
// byte-deterministic for identical state.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// emit writes one tagged section: tag, payload length, payload, CRC32-IEEE
// over the payload.
func emit(w io.Writer, tag byte, payload []byte) (int64, error) {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = tag
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	var written int64
	for _, b := range [][]byte{hdr[:n], payload, crc[:]} {
		k, err := w.Write(b)
		written += int64(k)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// WriteTo serializes the snapshot. The byte stream is deterministic for
// identical state (map entries are emitted key-sorted).
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := w.Write(append(append([]byte{}, magic[:]...), version))
	total += int64(n)
	if err != nil {
		return total, err
	}

	var sw sectionWriter
	sw.uvarint(s.ConfigHash)
	sw.str(s.DBPath)
	sw.uvarint(uint64(s.DBLen))
	sw.str(s.Engine)
	sw.varint(s.Seed)
	sw.uvarint(s.RngDraws)
	sw.uvarint(uint64(s.Phase))
	k, err := emit(w, secMeta, sw.buf.Bytes())
	total += k
	if err != nil {
		return total, err
	}

	sw.buf.Reset()
	sw.uvarint(uint64(len(s.SymbolMatch)))
	for _, v := range s.SymbolMatch {
		sw.float(v)
	}
	sw.uvarint(uint64(len(s.Sample)))
	for _, seq := range s.Sample {
		sw.uvarint(uint64(len(seq)))
		for _, d := range seq {
			sw.uvarint(uint64(d))
		}
	}
	k, err = emit(w, secPhase1, sw.buf.Bytes())
	total += k
	if err != nil {
		return total, err
	}

	if p2 := s.Phase2; p2 != nil {
		sw.buf.Reset()
		sw.floatMap(p2.Values)
		sw.floatMap(p2.Spreads)
		sw.uvarint(uint64(len(p2.Labels)))
		for _, key := range sortedKeys(p2.Labels) {
			sw.str(key)
			sw.buf.WriteByte(p2.Labels[key])
		}
		sw.uvarint(uint64(len(p2.CandidatesPerLevel)))
		for _, c := range p2.CandidatesPerLevel {
			sw.uvarint(uint64(c))
		}
		sw.uvarint(uint64(len(p2.AlivePerLevel)))
		for _, c := range p2.AlivePerLevel {
			sw.uvarint(uint64(c))
		}
		if p2.Truncated {
			sw.buf.WriteByte(1)
		} else {
			sw.buf.WriteByte(0)
		}
		k, err = emit(w, secPhase2, sw.buf.Bytes())
		total += k
		if err != nil {
			return total, err
		}
	}

	if pr := s.Probe; pr != nil {
		sw.buf.Reset()
		sw.uvarint(uint64(pr.Scans))
		sw.uvarint(uint64(pr.Probed))
		sw.floatMap(pr.Exact)
		sw.uvarint(uint64(len(pr.Frequent)))
		for _, key := range pr.Frequent {
			sw.str(key)
		}
		sw.uvarint(uint64(len(pr.Pending)))
		for _, key := range pr.Pending {
			sw.str(key)
		}
		k, err = emit(w, secProbe, sw.buf.Bytes())
		total += k
		if err != nil {
			return total, err
		}
	}

	if st := s.Stream; st != nil {
		sw.buf.Reset()
		sw.uvarint(uint64(st.Cursor))
		sw.uvarint(uint64(st.WindowStart))
		sw.uvarint(uint64(len(st.SymbolSums)))
		for _, v := range st.SymbolSums {
			sw.float(v)
		}
		sw.floatMap(nil) // the sample sums: empty, for the layout
		sw.floatMap(st.ExactSums)
		k, err = emit(w, secStream, sw.buf.Bytes())
		total += k
		if err != nil {
			return total, err
		}
	}

	k, err = emit(w, secEnd, nil)
	total += k
	return total, err
}

// sectionReader decodes one section's verified payload.
type sectionReader struct {
	r       *bytes.Reader
	section string
}

func (r *sectionReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, corrupt(r.section, "truncated integer", err)
	}
	return v, nil
}

func (r *sectionReader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	// A count can never exceed the remaining payload bytes (every element
	// costs at least one byte), so a corrupt count fails fast instead of
	// driving a huge allocation.
	if v > uint64(r.r.Len()) {
		return 0, corrupt(r.section, fmt.Sprintf("count %d exceeds remaining payload", v), nil)
	}
	return int(v), nil
}

func (r *sectionReader) varint() (int64, error) {
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		return 0, corrupt(r.section, "truncated integer", err)
	}
	return v, nil
}

func (r *sectionReader) float() (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		return 0, corrupt(r.section, "truncated float", err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func (r *sectionReader) str() (string, error) {
	l, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if l > maxStringLen {
		return "", corrupt(r.section, fmt.Sprintf("string length %d exceeds cap", l), nil)
	}
	if l > uint64(r.r.Len()) {
		return "", corrupt(r.section, "truncated string", nil)
	}
	b := make([]byte, l)
	if _, err := io.ReadFull(r.r, b); err != nil {
		return "", corrupt(r.section, "truncated string", err)
	}
	return string(b), nil
}

func (r *sectionReader) floatMap() (map[string]float64, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, min(n, initialAlloc))
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.float()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func (r *sectionReader) strings() ([]string, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, min(n, initialAlloc))
	for i := 0; i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (r *sectionReader) ints() ([]int, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, min(n, initialAlloc))
	for i := 0; i < n; i++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, corrupt(r.section, fmt.Sprintf("integer %d out of range", v), nil)
		}
		out = append(out, int(v))
	}
	return out, nil
}

// done verifies the section payload was consumed exactly.
func (r *sectionReader) done() error {
	if r.r.Len() != 0 {
		return corrupt(r.section, fmt.Sprintf("%d trailing bytes in section", r.r.Len()), nil)
	}
	return nil
}

// sectionName maps a tag to its section name for error reporting.
func sectionName(tag byte) string {
	switch tag {
	case secMeta:
		return "meta"
	case secPhase1:
		return "phase1"
	case secPhase2:
		return "phase2"
	case secProbe:
		return "probe"
	case secStream:
		return "stream"
	case secEnd:
		return "trailer"
	default:
		return fmt.Sprintf("unknown(0x%02x)", tag)
	}
}

// ReadFrom parses and verifies a snapshot. Any damage — bad magic, unknown
// version, checksum mismatch, truncation, out-of-range fields, missing or
// duplicated sections — returns a *CorruptError naming the section;
// arbitrary input never panics.
func (s *Snapshot) ReadFrom(r io.Reader) (int64, error) {
	br := &countingByteReader{r: r}
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return br.n, corrupt("header", "truncated header", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return br.n, corrupt("header", fmt.Sprintf("bad magic %q", hdr[:4]), nil)
	}
	if hdr[4] != version {
		return br.n, corrupt("header", fmt.Sprintf("unsupported version %d", hdr[4]), nil)
	}

	seen := make(map[byte]bool)
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return br.n, corrupt("trailer", "missing end marker", err)
		}
		name := sectionName(tag)
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			return br.n, corrupt(name, "truncated section length", err)
		}
		// Pull the payload through a bounded copy: a corrupt length cannot
		// allocate beyond the bytes actually present in the stream.
		var payload bytes.Buffer
		if _, err := io.CopyN(&payload, br, int64(plen)); err != nil {
			return br.n, corrupt(name, "truncated section payload", err)
		}
		var crc [4]byte
		if _, err := io.ReadFull(br, crc[:]); err != nil {
			return br.n, corrupt(name, "truncated section checksum", err)
		}
		if got, want := crc32.ChecksumIEEE(payload.Bytes()), binary.LittleEndian.Uint32(crc[:]); got != want {
			return br.n, corrupt(name, fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want), nil)
		}
		if seen[tag] {
			return br.n, corrupt(name, "duplicate section", nil)
		}
		seen[tag] = true
		sr := &sectionReader{r: bytes.NewReader(payload.Bytes()), section: name}
		switch tag {
		case secMeta:
			if err := s.readMeta(sr); err != nil {
				return br.n, err
			}
		case secPhase1:
			if !seen[secMeta] {
				return br.n, corrupt(name, "section precedes meta", nil)
			}
			if err := s.readPhase1(sr); err != nil {
				return br.n, err
			}
		case secPhase2:
			if !seen[secPhase1] {
				return br.n, corrupt(name, "section precedes phase1", nil)
			}
			if err := s.readPhase2(sr); err != nil {
				return br.n, err
			}
		case secProbe:
			if !seen[secPhase2] {
				return br.n, corrupt(name, "section precedes phase2", nil)
			}
			if err := s.readProbe(sr); err != nil {
				return br.n, err
			}
		case secStream:
			if !seen[secPhase1] {
				return br.n, corrupt(name, "section precedes phase1", nil)
			}
			if err := s.readStream(sr); err != nil {
				return br.n, err
			}
		case secEnd:
			if plen != 0 {
				return br.n, corrupt(name, "non-empty end marker", nil)
			}
			return br.n, s.validate()
		default:
			return br.n, corrupt(name, "unknown section tag", nil)
		}
	}
}

// validate cross-checks the assembled snapshot once all sections are in.
func (s *Snapshot) validate() error {
	if s.Phase < 1 || s.Phase > 3 {
		return corrupt("meta", fmt.Sprintf("phase %d outside [1,3]", s.Phase), nil)
	}
	if s.SymbolMatch == nil {
		return corrupt("phase1", "missing phase1 section", nil)
	}
	if s.Phase >= 2 && s.Phase2 == nil {
		return corrupt("phase2", "meta declares phase >= 2 but phase2 section is absent", nil)
	}
	if s.Phase >= 3 && s.Probe == nil {
		return corrupt("probe", "meta declares phase 3 but probe section is absent", nil)
	}
	if s.Phase < 2 && s.Phase2 != nil {
		return corrupt("phase2", "phase2 section present but meta declares phase < 2", nil)
	}
	if s.Phase < 3 && s.Probe != nil {
		return corrupt("probe", "probe section present but meta declares phase < 3", nil)
	}
	if st := s.Stream; st != nil {
		if st.Cursor < st.WindowStart {
			return corrupt("stream", fmt.Sprintf("cursor %d precedes window start %d", st.Cursor, st.WindowStart), nil)
		}
		if s.Probe != nil {
			return corrupt("stream", "stream snapshots carry probe sums in the stream section, not a probe section", nil)
		}
	}
	return nil
}

func (s *Snapshot) readMeta(r *sectionReader) error {
	var err error
	if s.ConfigHash, err = r.uvarint(); err != nil {
		return err
	}
	if s.DBPath, err = r.str(); err != nil {
		return err
	}
	dbLen, err := r.uvarint()
	if err != nil {
		return err
	}
	if dbLen > math.MaxInt32 {
		return corrupt(r.section, fmt.Sprintf("database length %d out of range", dbLen), nil)
	}
	s.DBLen = int(dbLen)
	if s.Engine, err = r.str(); err != nil {
		return err
	}
	if s.Seed, err = r.varint(); err != nil {
		return err
	}
	if s.RngDraws, err = r.uvarint(); err != nil {
		return err
	}
	phase, err := r.uvarint()
	if err != nil {
		return err
	}
	if phase < 1 || phase > 3 {
		return corrupt(r.section, fmt.Sprintf("phase %d outside [1,3]", phase), nil)
	}
	s.Phase = int(phase)
	return r.done()
}

func (s *Snapshot) readPhase1(r *sectionReader) error {
	n, err := r.count()
	if err != nil {
		return err
	}
	s.SymbolMatch = make([]float64, 0, min(n, initialAlloc))
	for i := 0; i < n; i++ {
		v, err := r.float()
		if err != nil {
			return err
		}
		s.SymbolMatch = append(s.SymbolMatch, v)
	}
	count, err := r.count()
	if err != nil {
		return err
	}
	s.Sample = make([][]pattern.Symbol, 0, min(count, initialAlloc))
	for i := 0; i < count; i++ {
		l, err := r.uvarint()
		if err != nil {
			return err
		}
		if l == 0 || l > maxSequenceLen {
			return corrupt(r.section, fmt.Sprintf("sample sequence %d has invalid length %d", i, l), nil)
		}
		if l > uint64(r.r.Len()) {
			return corrupt(r.section, fmt.Sprintf("sample sequence %d truncated", i), nil)
		}
		seq := make([]pattern.Symbol, l)
		for j := range seq {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			if v > math.MaxInt32 {
				return corrupt(r.section, fmt.Sprintf("symbol %d out of range", v), nil)
			}
			seq[j] = pattern.Symbol(v)
		}
		s.Sample = append(s.Sample, seq)
	}
	return r.done()
}

func (s *Snapshot) readPhase2(r *sectionReader) error {
	p2 := &Phase2State{}
	var err error
	if p2.Values, err = r.floatMap(); err != nil {
		return err
	}
	if p2.Spreads, err = r.floatMap(); err != nil {
		return err
	}
	n, err := r.count()
	if err != nil {
		return err
	}
	p2.Labels = make(map[string]uint8, min(n, initialAlloc))
	for i := 0; i < n; i++ {
		key, err := r.str()
		if err != nil {
			return err
		}
		label, err := r.r.ReadByte()
		if err != nil {
			return corrupt(r.section, "truncated label", err)
		}
		if label > 2 {
			return corrupt(r.section, fmt.Sprintf("label %d outside [0,2]", label), nil)
		}
		p2.Labels[key] = label
	}
	if p2.CandidatesPerLevel, err = r.ints(); err != nil {
		return err
	}
	if p2.AlivePerLevel, err = r.ints(); err != nil {
		return err
	}
	trunc, err := r.r.ReadByte()
	if err != nil {
		return corrupt(r.section, "truncated flag", err)
	}
	if trunc > 1 {
		return corrupt(r.section, fmt.Sprintf("flag %d outside [0,1]", trunc), nil)
	}
	p2.Truncated = trunc == 1
	s.Phase2 = p2
	return r.done()
}

func (s *Snapshot) readProbe(r *sectionReader) error {
	pr := &ProbeState{}
	scans, err := r.uvarint()
	if err != nil {
		return err
	}
	probed, err := r.uvarint()
	if err != nil {
		return err
	}
	if scans > math.MaxInt32 || probed > math.MaxInt32 {
		return corrupt(r.section, "probe counters out of range", nil)
	}
	pr.Scans, pr.Probed = int(scans), int(probed)
	if pr.Exact, err = r.floatMap(); err != nil {
		return err
	}
	if pr.Frequent, err = r.strings(); err != nil {
		return err
	}
	if pr.Pending, err = r.strings(); err != nil {
		return err
	}
	s.Probe = pr
	return r.done()
}

func (s *Snapshot) readStream(r *sectionReader) error {
	st := &StreamState{}
	cursor, err := r.uvarint()
	if err != nil {
		return err
	}
	start, err := r.uvarint()
	if err != nil {
		return err
	}
	if cursor > math.MaxInt32 || start > math.MaxInt32 {
		return corrupt(r.section, "window bounds out of range", nil)
	}
	st.Cursor, st.WindowStart = int(cursor), int(start)
	n, err := r.count()
	if err != nil {
		return err
	}
	st.SymbolSums = make([]float64, 0, min(n, initialAlloc))
	for i := 0; i < n; i++ {
		v, err := r.float()
		if err != nil {
			return err
		}
		st.SymbolSums = append(st.SymbolSums, v)
	}
	if _, err = r.floatMap(); err != nil { // the sample sums: dropped
		return err
	}
	if st.ExactSums, err = r.floatMap(); err != nil {
		return err
	}
	s.Stream = st
	return r.done()
}

// countingByteReader adapts an io.Reader to io.ByteReader while tracking the
// bytes consumed.
type countingByteReader struct {
	r   io.Reader
	n   int64
	buf [1]byte
}

func (c *countingByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(c.r, c.buf[:]); err != nil {
		return 0, err
	}
	c.n++
	return c.buf[0], nil
}

// Save writes the snapshot to path crash-atomically (AtomicWrite), returning
// the snapshot's size in bytes. A crash mid-write leaves any previous
// snapshot at path untouched.
func Save(path string, s *Snapshot) (int64, error) {
	var size int64
	err := AtomicWrite(path, func(tmp string) error {
		f, err := os.Create(tmp)
		if err != nil {
			return fmt.Errorf("checkpoint: create: %w", err)
		}
		n, err := s.WriteTo(f)
		size = n
		if err != nil {
			f.Close()
			return fmt.Errorf("checkpoint: write: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("checkpoint: sync: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("checkpoint: close: %w", err)
		}
		return nil
	})
	return size, err
}

// Load reads and verifies the snapshot at path.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open: %w", err)
	}
	defer f.Close()
	s := &Snapshot{}
	if _, err := s.ReadFrom(f); err != nil {
		return nil, err
	}
	var one [1]byte
	if _, err := f.Read(one[:]); err != io.EOF {
		return nil, corrupt("trailer", "trailing garbage after end marker", nil)
	}
	return s, nil
}

// AtomicWrite runs write against a temp path in path's directory, then
// renames it over path; the temp file is removed on any failure. write must
// create the file at the temp path and fsync what it writes, so the rename
// publishes only complete data. The temp path lies in a fresh private
// directory, so write creates the file as it would create path: with the
// mode it asks for, under the process umask. Snapshots, job records, the
// seqdb stores and the append log's head sidecar are all written through it.
func AtomicWrite(path string, write func(tmp string) error) error {
	dir := filepath.Dir(path)
	tmpDir, err := os.MkdirTemp(dir, ".lckptmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp dir: %w", err)
	}
	defer os.RemoveAll(tmpDir)
	tmp := filepath.Join(tmpDir, filepath.Base(path))
	if err := write(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	// Best-effort directory sync so the rename itself survives a crash.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
