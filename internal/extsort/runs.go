// Run storage: sorted runs live in memory up to the resident-key
// budget; beyond it they spill to one temp file as contiguous
// fixed-width segments (8 bytes per key, little endian). A single file
// holds every spilled run — sequential appends on the write side,
// positional buffered reads on the merge side — so a ten-thousand-run
// input costs one descriptor, not ten thousand.

package extsort

import (
	"encoding/binary"
	"fmt"
	"os"
)

// spillBufKeys is the per-stream read buffer and the spill write
// granularity, in keys (4096 keys = 32 KiB).
const spillBufKeys = 4096

// keyBytes is the on-disk key width.
const keyBytes = 8

// runHandle is one sorted run: resident (mem != nil) or a spill-file
// segment [off, off+count·keyBytes).
type runHandle struct {
	mem   []Key
	off   int64
	count int
}

// runStore owns the resident budget and the spill file.
type runStore struct {
	dir      string
	budget   int // MemoryKeys
	resident int
	runs     []runHandle

	file    *os.File
	fileEnd int64
	wbuf    []byte // spill encode buffer, spillBufKeys wide
	rbuf    []byte // spill decode buffer, shared by the merge's cursors

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
	st.wbuf = make([]byte, spillBufKeys*keyBytes)
	return nil
}

// spill appends run to the spill file and returns its segment handle.
func (st *runStore) spill(run []Key) (runHandle, error) {
	w, err := st.beginSegment()
	if err != nil {
		return runHandle{}, err
	}
	if err := w.Write(run); err != nil {
		return runHandle{}, err
	}
	return w.finish()
}

// segmentWriter streams one run (or one intermediate merged run) into
// the spill file through the store's encode buffer. It is the Writer
// an intermediate merge pass drains into.
type segmentWriter struct {
	st    *runStore
	off   int64
	count int
	fill  int // keys buffered in st.wbuf
}

// beginSegment opens a writer at the current end of the spill file.
// Segments are written one at a time (the pipeline is sequential), so
// the single encode buffer is safe to share.
func (st *runStore) beginSegment() (*segmentWriter, error) {
	if err := st.ensureFile(); err != nil {
		return nil, err
	}
	return &segmentWriter{st: st, off: st.fileEnd}, nil
}

// Write implements Writer: it appends keys to the segment.
func (w *segmentWriter) Write(keys []Key) error {
	st := w.st
	for len(keys) > 0 {
		space := spillBufKeys - w.fill
		if space == 0 {
			if err := w.flush(); err != nil {
				return err
			}
			space = spillBufKeys
		}
		if space > len(keys) {
			space = len(keys)
		}
		base := w.fill * keyBytes
		for i, k := range keys[:space] {
			binary.LittleEndian.PutUint64(st.wbuf[base+i*keyBytes:], uint64(k))
		}
		w.fill += space
		w.count += space
		keys = keys[space:]
	}
	return nil
}

// flush writes the buffered keys to the file.
func (w *segmentWriter) flush() error {
	if w.fill == 0 {
		return nil
	}
	st := w.st
	if _, err := st.file.WriteAt(st.wbuf[:w.fill*keyBytes], st.fileEnd); err != nil {
		return fmt.Errorf("extsort: spill write: %w", err)
	}
	st.fileEnd += int64(w.fill * keyBytes)
	w.fill = 0
	return nil
}

// finish flushes, accounts the spill, and returns the segment handle.
func (w *segmentWriter) finish() (runHandle, error) {
	if err := w.flush(); err != nil {
		return runHandle{}, err
	}
	st := w.st
	bytes := int64(w.count) * keyBytes
	st.stats.SpilledRuns++
	st.stats.SpilledBytes += bytes
	if st.met != nil {
		st.met.spillRuns.Inc()
		st.met.spillBytes.Add(bytes)
	}
	return runHandle{off: w.off, count: w.count}, nil
}

// close releases the spill file (and with it, by the unlink above, the
// disk space). Safe to call when nothing ever spilled, and idempotent.
func (st *runStore) close() {
	if st.file != nil {
		st.file.Close()
		st.file = nil
	}
}

// cursor is a pull cursor over one sorted run, one block at a time. A
// resident run is a single block; a spill segment refills its block
// with a positional read, so cursors over one file never disturb each
// other. The merge is single-goroutine, so every cursor decodes
// through the store's one read buffer.
type cursor struct {
	block     []Key
	pos       int
	st        *runStore // nil for a resident run
	off       int64     // next unread byte of the segment
	remaining int       // segment keys not yet in block
	err       error     // the first read error
}

// cursor opens a cursor over one run.
func (st *runStore) cursor(h runHandle) cursor {
	if h.mem != nil {
		return cursor{block: h.mem}
	}
	if st.rbuf == nil {
		st.rbuf = make([]byte, spillBufKeys*keyBytes)
	}
	return cursor{block: make([]Key, 0, spillBufKeys), st: st, off: h.off, remaining: h.count}
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
	raw := c.st.rbuf[:n*keyBytes]
	if _, err := c.st.file.ReadAt(raw, c.off); err != nil {
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
