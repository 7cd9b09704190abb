// Run storage: sorted runs live in memory up to the resident-key
// budget; beyond it they spill to one temp file as contiguous
// fixed-width segments (8 bytes per key, little endian). A single file
// holds every spilled run — each segment's byte range is reserved
// before it is written, and reads are positional — so a
// ten-thousand-run input costs one descriptor, not ten thousand, and
// concurrent merges write and read it without coordinating.

package extsort

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
)

// spillBufKeys is the per-stream read buffer and the spill write
// granularity, in keys (4096 keys = 32 KiB).
const spillBufKeys = 4096

// keyBytes is the on-disk key width.
const keyBytes = 8

// fenceKeys is the fence stride: a spill segment remembers every
// fenceKeys-th key it holds, so the final pass can sample splitters
// and cut a segment at a key with one fenceKeys-wide read.
const fenceKeys = 512

// runHandle is one sorted run: resident (mem != nil) or a spill-file
// segment [off, off+count·keyBytes) whose fences hold the keys at
// positions 0, fenceKeys, 2·fenceKeys, ….
type runHandle struct {
	mem    []Key
	off    int64
	count  int
	fences []Key
}

// keys returns the run's length.
func (h runHandle) keys() int {
	if h.mem != nil {
		return len(h.mem)
	}
	return h.count
}

// runStore owns the resident budget and the spill file.
type runStore struct {
	dir      string
	budget   int // MemoryKeys
	resident int
	runs     []runHandle

	file    *os.File
	fileEnd int64  // end of the last reserved segment
	wbuf    []byte // run formation's spill encode buffer

	stats *Stats
	met   *metrics
}

func newRunStore(dir string, budget int, stats *Stats, met *metrics) *runStore {
	return &runStore{dir: dir, budget: budget, stats: stats, met: met}
}

// add takes ownership of one sorted run, keeping it resident when the
// budget allows and spilling it otherwise.
func (st *runStore) add(run []Key) error {
	if st.resident+len(run) <= st.budget {
		st.resident += len(run)
		st.runs = append(st.runs, runHandle{mem: run})
		return nil
	}
	h, err := st.spill(run)
	if err != nil {
		return err
	}
	st.runs = append(st.runs, h)
	return nil
}

// ensureFile lazily creates the spill file.
func (st *runStore) ensureFile() error {
	if st.file != nil {
		return nil
	}
	dir := st.dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "extsort-spill-*")
	if err != nil {
		return fmt.Errorf("extsort: creating spill file: %w", err)
	}
	// Unlinking immediately keeps the cleanup contract trivial: the
	// segments stay readable through the descriptor, and the kernel
	// reclaims the space the moment the descriptor closes — even if
	// the process dies mid-sort.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return fmt.Errorf("extsort: unlinking spill file: %w", err)
	}
	st.file = f
	return nil
}

// reserve claims the file range of an n-key segment and returns a
// writer for it; the caller sets the writer's encode buffer. The store
// hands out ranges in call order, so the file layout is fixed by the
// order of the reserve calls, not by the order the segments are
// written in.
func (st *runStore) reserve(n int) (*segmentWriter, error) {
	if err := st.ensureFile(); err != nil {
		return nil, err
	}
	w := &segmentWriter{file: st.file, off: st.fileEnd, fences: make([]Key, 0, (n+fenceKeys-1)/fenceKeys)}
	st.fileEnd += int64(n) * keyBytes
	return w, nil
}

// account records one spilled segment of n keys.
func (st *runStore) account(n int) {
	bytes := int64(n) * keyBytes
	st.stats.SpilledRuns++
	st.stats.SpilledBytes += bytes
	if st.met != nil {
		st.met.spillRuns.Inc()
		st.met.spillBytes.Add(bytes)
	}
}

// spill appends run to the spill file and returns its segment handle.
func (st *runStore) spill(run []Key) (runHandle, error) {
	w, err := st.reserve(len(run))
	if err != nil {
		return runHandle{}, err
	}
	if st.wbuf == nil {
		st.wbuf = make([]byte, spillBufKeys*keyBytes)
	}
	w.buf = st.wbuf
	if err := w.Write(run); err != nil {
		return runHandle{}, err
	}
	h, err := w.finish()
	if err != nil {
		return runHandle{}, err
	}
	st.account(h.count)
	return h, nil
}

// close releases the spill file (and with it, by the unlink above, the
// disk space). Safe to call when nothing ever spilled, and idempotent.
func (st *runStore) close() {
	if st.file != nil {
		st.file.Close()
		st.file = nil
	}
}

// segmentWriter streams one run (or one intermediate merged run) into
// its reserved range of the spill file through its owner's encode
// buffer, recording a fence every fenceKeys keys. It is the Writer an
// intermediate merge drains into.
type segmentWriter struct {
	file   *os.File
	off    int64 // the segment's first byte
	count  int   // keys written so far, buffered ones included
	fill   int   // keys buffered in buf
	buf    []byte
	fences []Key
}

// Write implements Writer: it appends keys to the segment.
func (w *segmentWriter) Write(keys []Key) error {
	for f := (fenceKeys - w.count%fenceKeys) % fenceKeys; f < len(keys); f += fenceKeys {
		w.fences = append(w.fences, keys[f])
	}
	for len(keys) > 0 {
		if w.fill == spillBufKeys {
			if err := w.flush(); err != nil {
				return err
			}
		}
		n := min(spillBufKeys-w.fill, len(keys))
		dst := w.buf[w.fill*keyBytes:]
		for i, k := range keys[:n] {
			binary.LittleEndian.PutUint64(dst[i*keyBytes:], uint64(k))
		}
		w.fill += n
		w.count += n
		keys = keys[n:]
	}
	return nil
}

// flush writes the buffered keys to their place in the segment.
func (w *segmentWriter) flush() error {
	if w.fill == 0 {
		return nil
	}
	at := w.off + int64(w.count-w.fill)*keyBytes
	if _, err := w.file.WriteAt(w.buf[:w.fill*keyBytes], at); err != nil {
		return fmt.Errorf("extsort: spill write: %w", err)
	}
	w.fill = 0
	return nil
}

// finish flushes and returns the segment handle.
func (w *segmentWriter) finish() (runHandle, error) {
	if err := w.flush(); err != nil {
		return runHandle{}, err
	}
	return runHandle{off: w.off, count: w.count, fences: w.fences}, nil
}

// scratch is one merge goroutine's reusable buffers. Nothing in it is
// shared: every goroutine that merges owns one, so its cursors decode
// through its own read buffer while other merges read the same file.
type scratch struct {
	file   *os.File // the spill file; nil while nothing has spilled
	raw    []byte   // spill decode buffer, shared by this goroutine's cursors
	blocks [][]Key  // cursor blocks, by cursor index
}

func newScratch(file *os.File) *scratch {
	return &scratch{file: file, raw: make([]byte, spillBufKeys*keyBytes)}
}

// cursor opens the i-th cursor of a merge over h.
func (sc *scratch) cursor(i int, h runHandle) cursor {
	if h.mem != nil {
		return cursor{block: h.mem}
	}
	for len(sc.blocks) <= i {
		sc.blocks = append(sc.blocks, make([]Key, 0, spillBufKeys))
	}
	return cursor{block: sc.blocks[i][:0], file: sc.file, raw: sc.raw, off: h.off, remaining: h.count}
}

// upperBound returns the index of h's first key above s: a binary
// search of a resident run; for a spill segment, a search of its fences
// and then of the one fenceKeys-wide stretch they leave, read
// positionally through the decode buffer.
func (sc *scratch) upperBound(h runHandle, s Key) (int, error) {
	if h.mem != nil {
		return sort.Search(len(h.mem), func(i int) bool { return h.mem[i] > s }), nil
	}
	j := sort.Search(len(h.fences), func(i int) bool { return h.fences[i] > s })
	if j == 0 {
		return 0, nil
	}
	// Key lo is fences[j-1] <= s and key hi (if any) is fences[j] > s.
	lo, hi := (j-1)*fenceKeys, min(j*fenceKeys, h.count)
	raw := sc.raw[:(hi-lo)*keyBytes]
	if _, err := sc.file.ReadAt(raw, h.off+int64(lo)*keyBytes); err != nil {
		return 0, fmt.Errorf("extsort: spill read: %w", err)
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return Key(binary.LittleEndian.Uint64(raw[i*keyBytes:])) > s }), nil
}

// cursor is a pull cursor over one sorted run, one block at a time. A
// resident run is a single block; a spill segment refills its block
// with a positional read, so cursors over one file never disturb each
// other. A merge runs on one goroutine, so its cursors decode through
// that goroutine's one read buffer.
type cursor struct {
	block     []Key
	pos       int
	file      *os.File // nil for a resident run
	raw       []byte   // the merging goroutine's decode buffer
	off       int64    // next unread byte of the segment
	remaining int      // segment keys not yet in block
	err       error    // the first read error
}

// next returns the cursor's head and advances; ok=false at the end of
// the run or on a read error, which err then holds, so an exhausted
// run is never conflated with a failed one.
func (c *cursor) next() (Key, bool) {
	if c.pos == len(c.block) && !c.refill() {
		return 0, false
	}
	k := c.block[c.pos]
	c.pos++
	return k, true
}

// refill reads the next block of the segment.
func (c *cursor) refill() bool {
	if c.remaining == 0 || c.err != nil {
		return false
	}
	n := min(spillBufKeys, c.remaining)
	raw := c.raw[:n*keyBytes]
	if _, err := c.file.ReadAt(raw, c.off); err != nil {
		c.err = fmt.Errorf("extsort: spill read: %w", err)
		return false
	}
	c.block = c.block[:n]
	for i := range c.block {
		c.block[i] = Key(binary.LittleEndian.Uint64(raw[i*keyBytes:]))
	}
	c.off += int64(n * keyBytes)
	c.remaining -= n
	c.pos = 0
	return true
}
