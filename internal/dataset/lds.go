package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"github.com/libra-wlan/libra/internal/phy"
)

// libra-ds v1 is the streaming binary campaign container: a fixed header,
// a sequence of fixed-width column chunks, and a footer carrying the string
// dictionary, the site registry, a SHA-256 per chunk payload, and the
// campaign content digest. All integers are little-endian.
//
//	header:
//	  "LDS1" | u32 version=1 | u32 chunkRows | u32 chunkCount | u64 rowCount
//	chunk frame (chunkCount times):
//	  "CHNK" | u32 rows | u64 payloadLen | payload
//	  payload: the columns of the chunk's row range, column-major, in
//	  canonical order — Env u16, Bld u16, Imp u8, Label u8, Pos i32,
//	  InitMCS u8, Feat[0..NumFeatures) f64, InitSNR f64, NewSNRInit f64,
//	  NewSNRBest f64, InitTh f64, ThRA f64, ThBA f64,
//	  InitBeamTh[0..NumMCS) f64, BestBeamTh[0..NumMCS) f64.
//	  Floats are IEEE-754 bit patterns: the round trip is exact.
//	footer:
//	  "LDSF" | u32 nameLen | name
//	  u32 dictLen | dictLen x (u32 len | bytes)
//	  u32 siteCount | siteCount x (u32 envLen | env | u8 impairment | i32 posID)
//	  chunkCount x 32-byte SHA-256 (of each chunk payload)
//	  u32 digestLen | campaign content digest (Campaign.Digest(), hex)
//	trailer:
//	  u64 footerOffset | "LDS1FTR\0"
//
// The trailer lets a reader seek straight to the footer of an already
// complete file; the chunk framing lets it stream and verify chunk by chunk.
// Chunk payload bytes depend only on the campaign content and chunkRows, so
// the file is byte-identical for any writer worker count.

// ldsVersion is the container schema version.
const ldsVersion = 1

// DefaultChunkRows is the chunk granularity WriteLDS uses when the caller
// passes chunkRows <= 0: large enough to amortize framing and hashing, small
// enough that a streaming reader verifies in bounded memory.
const DefaultChunkRows = 4096

var (
	ldsMagic   = [4]byte{'L', 'D', 'S', '1'}
	ldsChunk   = [4]byte{'C', 'H', 'N', 'K'}
	ldsFooter  = [4]byte{'L', 'D', 'S', 'F'}
	ldsTrailer = [8]byte{'L', 'D', 'S', '1', 'F', 'T', 'R', 0}
)

// ErrLDSCorrupt reports a structurally damaged or digest-mismatched
// libra-ds file. Every reader failure wraps it, so callers can distinguish
// corruption from I/O errors with errors.Is.
var ErrLDSCorrupt = errors.New("dataset: corrupt libra-ds file")

// ldsRowBytes is the fixed per-row payload width: the dictionary indices and
// enums plus every float column.
const ldsRowBytes = 2 + 2 + 1 + 1 + 4 + 1 + 8*(NumFeatures+6+2*phy.NumMCS)

// ldsBufPool recycles chunk encode buffers across chunks and campaigns.
var ldsBufPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeChunk serializes rows [lo, hi) of the store into a pooled buffer in
// canonical column order and returns the buffer and its SHA-256.
func encodeChunk(s *ColumnStore, lo, hi int) ([]byte, [32]byte) {
	rows := hi - lo
	bp := ldsBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if need := rows * ldsRowBytes; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	for _, v := range s.Env[lo:hi] {
		buf = binary.LittleEndian.AppendUint16(buf, v)
	}
	for _, v := range s.Bld[lo:hi] {
		buf = binary.LittleEndian.AppendUint16(buf, v)
	}
	buf = append(buf, s.Imp[lo:hi]...)
	buf = append(buf, s.Label[lo:hi]...)
	for _, v := range s.Pos[lo:hi] {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = append(buf, s.InitMCS[lo:hi]...)
	appendF64s := func(col []float64) {
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for f := 0; f < NumFeatures; f++ {
		appendF64s(s.Feat[f][lo:hi])
	}
	appendF64s(s.InitSNR[lo:hi])
	appendF64s(s.NewSNRInit[lo:hi])
	appendF64s(s.NewSNRBest[lo:hi])
	appendF64s(s.InitTh[lo:hi])
	appendF64s(s.ThRA[lo:hi])
	appendF64s(s.ThBA[lo:hi])
	for m := 0; m < phy.NumMCS; m++ {
		appendF64s(s.InitBeamTh[m][lo:hi])
	}
	for m := 0; m < phy.NumMCS; m++ {
		appendF64s(s.BestBeamTh[m][lo:hi])
	}
	*bp = buf
	return buf, sha256.Sum256(buf)
}

// releaseChunkBuf returns an encode buffer to the pool.
func releaseChunkBuf(buf []byte) {
	b := buf
	ldsBufPool.Put(&b)
}

// WriteLDS streams the campaign in libra-ds v1 format. chunkRows <= 0 selects
// DefaultChunkRows; workers <= 0 selects 1. Chunks are encoded and hashed on
// a bounded worker pipeline and written strictly in chunk order, so the
// output bytes are identical for every worker count and the in-flight memory
// is bounded to O(workers) chunk buffers.
func (c *Campaign) WriteLDS(w io.Writer, chunkRows, workers int) error {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	if workers <= 0 {
		workers = 1
	}
	cols := c.Columns()
	n := cols.Len()
	chunkCount := (n + chunkRows - 1) / chunkRows

	var hdr []byte
	hdr = append(hdr, ldsMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, ldsVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(chunkRows))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(chunkCount))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(n))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("dataset: writing libra-ds header: %w", err)
	}
	off := int64(len(hdr))

	type encoded struct {
		buf []byte
		sum [32]byte
	}
	sums := make([][32]byte, chunkCount)
	writeChunk := func(i int, e encoded) error {
		obsLDSChunks.Inc()
		sums[i] = e.sum
		var frame [16]byte
		copy(frame[:4], ldsChunk[:])
		binary.LittleEndian.PutUint32(frame[4:8], uint32(len(e.buf)/ldsRowBytes))
		binary.LittleEndian.PutUint64(frame[8:16], uint64(len(e.buf)))
		if _, err := w.Write(frame[:]); err != nil {
			return fmt.Errorf("dataset: writing chunk %d frame: %w", i, err)
		}
		if _, err := w.Write(e.buf); err != nil {
			return fmt.Errorf("dataset: writing chunk %d payload: %w", i, err)
		}
		off += int64(len(frame)) + int64(len(e.buf))
		obsLDSBytes.Add(uint64(len(frame) + len(e.buf)))
		releaseChunkBuf(e.buf)
		return nil
	}

	if workers == 1 || chunkCount <= 1 {
		for i := 0; i < chunkCount; i++ {
			lo := i * chunkRows
			hi := min(lo+chunkRows, n)
			buf, sum := encodeChunk(cols, lo, hi)
			if err := writeChunk(i, encoded{buf, sum}); err != nil {
				return err
			}
		}
	} else {
		// Bounded reorder pipeline: dispatch is gated by a semaphore the
		// in-order writer releases, so at most 2*workers chunks are encoded
		// or encoded-but-unwritten at once; each chunk's result arrives on
		// its own channel, so the writer consumes strictly in chunk order.
		results := make([]chan encoded, chunkCount)
		for i := range results {
			results[i] = make(chan encoded, 1)
		}
		sem := make(chan struct{}, 2*workers)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					lo := i * chunkRows
					hi := min(lo+chunkRows, n)
					buf, sum := encodeChunk(cols, lo, hi)
					results[i] <- encoded{buf, sum}
				}
			}()
		}
		go func() {
			for i := 0; i < chunkCount; i++ {
				sem <- struct{}{}
				jobs <- i
			}
			close(jobs)
			wg.Wait()
		}()
		var werr error
		for i := 0; i < chunkCount; i++ {
			e := <-results[i]
			if werr == nil {
				werr = writeChunk(i, e)
			} else {
				releaseChunkBuf(e.buf)
			}
			<-sem
		}
		if werr != nil {
			return werr
		}
	}

	var ftr []byte
	ftr = append(ftr, ldsFooter[:]...)
	appendStr := func(s string) {
		ftr = binary.LittleEndian.AppendUint32(ftr, uint32(len(s)))
		ftr = append(ftr, s...)
	}
	appendStr(c.Name)
	ftr = binary.LittleEndian.AppendUint32(ftr, uint32(len(cols.Names)))
	for _, name := range cols.Names {
		appendStr(name)
	}
	ftr = binary.LittleEndian.AppendUint32(ftr, uint32(len(c.Sites)))
	for _, s := range c.Sites {
		appendStr(s.Env)
		ftr = append(ftr, uint8(s.Impairment))
		ftr = binary.LittleEndian.AppendUint32(ftr, uint32(int32(s.PosID)))
	}
	for i := range sums {
		ftr = append(ftr, sums[i][:]...)
	}
	appendStr(c.Digest())
	if _, err := w.Write(ftr); err != nil {
		return fmt.Errorf("dataset: writing libra-ds footer: %w", err)
	}

	var trail []byte
	trail = binary.LittleEndian.AppendUint64(trail, uint64(off))
	trail = append(trail, ldsTrailer[:]...)
	if _, err := w.Write(trail); err != nil {
		return fmt.Errorf("dataset: writing libra-ds trailer: %w", err)
	}
	obsLDSBytes.Add(uint64(len(ftr) + len(trail)))
	return nil
}

// ldsReader walks a libra-ds byte image with bounds-checked primitives.
type ldsReader struct {
	data []byte
	off  int
}

func (r *ldsReader) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", ErrLDSCorrupt, r.off, fmt.Sprintf(format, args...))
}

func (r *ldsReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, r.corrupt("need %d bytes, have %d", n, len(r.data)-r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *ldsReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *ldsReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *ldsReader) str(maxLen uint32) (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", r.corrupt("string length %d exceeds limit %d", n, maxLen)
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// decodeChunk appends the rows of one verified chunk payload onto the store.
func decodeChunk(s *ColumnStore, payload []byte, rows int) {
	off := 0
	u16s := func(dst *[]uint16) {
		for i := 0; i < rows; i++ {
			*dst = append(*dst, binary.LittleEndian.Uint16(payload[off:]))
			off += 2
		}
	}
	u8s := func(dst *[]uint8) {
		*dst = append(*dst, payload[off:off+rows]...)
		off += rows
	}
	f64s := func(dst *[]float64) {
		for i := 0; i < rows; i++ {
			*dst = append(*dst, math.Float64frombits(binary.LittleEndian.Uint64(payload[off:])))
			off += 8
		}
	}
	u16s(&s.Env)
	u16s(&s.Bld)
	u8s(&s.Imp)
	u8s(&s.Label)
	for i := 0; i < rows; i++ {
		s.Pos = append(s.Pos, int32(binary.LittleEndian.Uint32(payload[off:])))
		off += 4
	}
	u8s(&s.InitMCS)
	for f := 0; f < NumFeatures; f++ {
		f64s(&s.Feat[f])
	}
	f64s(&s.InitSNR)
	f64s(&s.NewSNRInit)
	f64s(&s.NewSNRBest)
	f64s(&s.InitTh)
	f64s(&s.ThRA)
	f64s(&s.ThBA)
	for m := 0; m < phy.NumMCS; m++ {
		f64s(&s.InitBeamTh[m])
	}
	for m := 0; m < phy.NumMCS; m++ {
		f64s(&s.BestBeamTh[m])
	}
}

// ReadLDS decodes a complete libra-ds v1 image (as produced by WriteLDS)
// into a campaign, verifying the chunk framing, every per-chunk SHA-256, the
// trailer, and the campaign content digest. The returned campaign owns its
// memory: data may be unmapped or reused afterwards.
func ReadLDS(data []byte) (*Campaign, error) {
	r := &ldsReader{data: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != ldsMagic {
		return nil, r.corrupt("bad magic %q", magic)
	}
	version, err := r.u32()
	if err != nil {
		return nil, err
	}
	if version != ldsVersion {
		return nil, fmt.Errorf("dataset: unsupported libra-ds version %d (want %d)", version, ldsVersion)
	}
	if _, err := r.u32(); err != nil { // chunkRows: informational
		return nil, err
	}
	chunkCount, err := r.u32()
	if err != nil {
		return nil, err
	}
	rowCount, err := r.u64()
	if err != nil {
		return nil, err
	}
	if rowCount > uint64(len(data))/ldsRowBytes {
		return nil, r.corrupt("row count %d impossible for %d-byte file", rowCount, len(data))
	}
	// Every chunk costs a 16-byte frame header plus its footer SHA-256, so
	// bound the count by the bytes left before allocating for it.
	if uint64(chunkCount) > uint64(len(data)-r.off)/(16+sha256.Size) {
		return nil, r.corrupt("chunk count %d impossible for %d-byte file", chunkCount, len(data))
	}

	type chunkRef struct {
		payload []byte
		rows    int
	}
	chunks := make([]chunkRef, 0, chunkCount)
	total := 0
	for i := uint32(0); i < chunkCount; i++ {
		magic, err := r.bytes(4)
		if err != nil {
			return nil, err
		}
		if [4]byte(magic) != ldsChunk {
			return nil, r.corrupt("chunk %d: bad frame magic %q", i, magic)
		}
		rows, err := r.u32()
		if err != nil {
			return nil, err
		}
		payloadLen, err := r.u64()
		if err != nil {
			return nil, err
		}
		if payloadLen != uint64(rows)*ldsRowBytes {
			return nil, r.corrupt("chunk %d: payload %d bytes for %d rows (want %d)", i, payloadLen, rows, uint64(rows)*ldsRowBytes)
		}
		payload, err := r.bytes(int(payloadLen))
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, chunkRef{payload, int(rows)})
		total += int(rows)
	}
	if uint64(total) != rowCount {
		return nil, r.corrupt("chunks carry %d rows, header says %d", total, rowCount)
	}

	footerOff := r.off
	magic, err = r.bytes(4)
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != ldsFooter {
		return nil, r.corrupt("bad footer magic %q", magic)
	}
	name, err := r.str(1 << 20)
	if err != nil {
		return nil, err
	}
	dictLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	if dictLen > uint32(len(data)) {
		return nil, r.corrupt("dictionary of %d names impossible", dictLen)
	}
	names := make([]string, dictLen)
	for i := range names {
		if names[i], err = r.str(1 << 20); err != nil {
			return nil, err
		}
	}
	siteCount, err := r.u32()
	if err != nil {
		return nil, err
	}
	if siteCount > uint32(len(data)) {
		return nil, r.corrupt("site registry of %d entries impossible", siteCount)
	}
	sites := make([]Site, siteCount)
	for i := range sites {
		if sites[i].Env, err = r.str(1 << 20); err != nil {
			return nil, err
		}
		imp, err := r.bytes(1)
		if err != nil {
			return nil, err
		}
		sites[i].Impairment = Impairment(imp[0])
		pos, err := r.u32()
		if err != nil {
			return nil, err
		}
		sites[i].PosID = int(int32(pos))
	}
	for i := range chunks {
		want, err := r.bytes(sha256.Size)
		if err != nil {
			return nil, err
		}
		if sum := sha256.Sum256(chunks[i].payload); [sha256.Size]byte(want) != sum {
			return nil, fmt.Errorf("%w: chunk %d: payload SHA-256 mismatch", ErrLDSCorrupt, i)
		}
	}
	wantDigest, err := r.str(128)
	if err != nil {
		return nil, err
	}
	gotOff, err := r.u64()
	if err != nil {
		return nil, err
	}
	if gotOff != uint64(footerOff) {
		return nil, r.corrupt("trailer footer offset %d, footer is at %d", gotOff, footerOff)
	}
	trail, err := r.bytes(8)
	if err != nil {
		return nil, err
	}
	if [8]byte(trail) != ldsTrailer {
		return nil, r.corrupt("bad trailer magic %q", trail)
	}
	if r.off != len(data) {
		return nil, r.corrupt("%d trailing bytes after trailer", len(data)-r.off)
	}

	cols := newColumnStore()
	cols.Names = append(cols.Names, names...)
	if cols.nameIdx == nil {
		cols.nameIdx = map[string]uint16{}
	}
	for i, n := range cols.Names {
		cols.nameIdx[n] = uint16(i)
	}
	for _, ch := range chunks {
		decodeChunk(cols, ch.payload, ch.rows)
		obsLDSChunksRead.Inc()
	}
	maxIdx := uint16(0)
	for _, v := range cols.Env {
		maxIdx = max(maxIdx, v)
	}
	for _, v := range cols.Bld {
		maxIdx = max(maxIdx, v)
	}
	if int(maxIdx) >= len(cols.Names) && cols.Len() > 0 {
		return nil, fmt.Errorf("%w: dictionary index %d out of range (%d names)", ErrLDSCorrupt, maxIdx, len(cols.Names))
	}

	c := &Campaign{
		Dataset: Dataset{Name: name},
		Sites:   sites,
		cols:    cols,
	}
	c.Entries = cols.materialize()
	if got := c.Digest(); wantDigest != got {
		return nil, fmt.Errorf("%w: campaign digest mismatch", ErrLDSCorrupt)
	}
	if err := c.Check(); err != nil {
		return nil, err
	}
	return c, nil
}

// OpenLDS reads a libra-ds v1 file into a campaign. On Linux the image is
// memory-mapped for the duration of decoding (with a plain-read fallback);
// elsewhere it is read whole. The mapping is released before returning.
func OpenLDS(path string) (*Campaign, error) {
	data, release, err := openLDSBytes(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	defer release()
	c, err := ReadLDS(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
