// Package spill implements governed spill-to-disk storage for the
// external-memory execution paths: the grace hash join, the spilling
// nested-loop join, and the shared spool.
//
// A spilling operator opens one File at its first spill and closes it —
// which unlinks it — when it is done. Inside the file, each Writer
// streams rows in a compact binary encoding, buffering at most BlockSize
// bytes before it flushes them as an extent of the file; Finish seals
// the writer's extents into a Run, which can be re-read any number of
// times with ReadAt and whose extents Drop returns to the file for later
// flushes to reuse. The file charges the governor's spill budget as it
// grows and releases the charge at Close, so its bytes on disk never
// exceed what it has charged.
//
// The package sits below internal/exec (which consumes it) and above
// internal/resource (whose ExecContext carries the SpillConfig and the
// spill budget), mirroring how exec itself layers over resource.
package spill

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/resource"
)

// BlockSize bounds a writer's buffer: a writer flushes once it holds
// this many encoded bytes, and a reader reads a run this much at a time.
const BlockSize = 4096

// extent is a byte range of the spill file.
type extent struct{ off, n int64 }

// File is one operator's spill file. Its length only grows by a spill
// charge taken first, so the bytes on disk never exceed the charge;
// extents freed by Drop or Abort are reused before the file grows.
// A File is used by one goroutine.
type File struct {
	ec     *resource.ExecContext
	op     string
	f      *os.File
	size   int64    // file length, all of it charged to the spill budget
	free   []extent // dropped extents, reused by later flushes
	closed bool
}

// Create opens a new spill file in the context's spill directory on
// behalf of op (the operator name used in resource errors). The
// directory is created if it does not exist yet.
func Create(ec *resource.ExecContext, op string) (*File, error) {
	dir := ec.Spill().Directory()
	f, err := os.CreateTemp(dir, Prefix+"*.run")
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			f, err = os.CreateTemp(dir, Prefix+"*.run")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &File{ec: ec, op: op, f: f}, nil
}

// Name returns the file's path.
func (f *File) Name() string { return f.f.Name() }

// Close closes and unlinks the file and releases its spill charge. Every
// run and reader over it is dead afterwards. Idempotent.
func (f *File) Close() error {
	if f == nil || f.closed {
		return nil
	}
	f.closed = true
	err := f.f.Close()
	os.Remove(f.f.Name())
	f.ec.ReleaseSpill(f.size)
	f.size, f.free = 0, nil
	return err
}

// write stores p in free extents first and then at the end of the file,
// charging the spill budget before the file grows, and appends the
// extents it used to exts. On error exts still lists every extent taken,
// so the caller can free them.
func (f *File) write(p []byte, exts []extent) ([]extent, error) {
	for len(p) > 0 {
		var e extent
		if n := len(f.free); n > 0 {
			e = f.free[n-1]
			f.free = f.free[:n-1]
			if e.n > int64(len(p)) {
				f.free = append(f.free, extent{e.off + int64(len(p)), e.n - int64(len(p))})
				e.n = int64(len(p))
			}
		} else {
			if err := f.ec.ReserveSpill(f.op, int64(len(p))); err != nil {
				return exts, err
			}
			e = extent{f.size, int64(len(p))}
			f.size += e.n
		}
		if k := len(exts) - 1; k >= 0 && exts[k].off+exts[k].n == e.off {
			exts[k].n += e.n
		} else {
			exts = append(exts, e)
		}
		if _, err := f.f.WriteAt(p[:e.n], e.off); err != nil {
			return exts, fmt.Errorf("spill: %w", err)
		}
		p = p[e.n:]
	}
	return exts, nil
}

// release returns extents to the free list.
func (f *File) release(exts []extent) {
	if !f.closed {
		f.free = append(f.free, exts...)
	}
}

// NewWriter starts a new run in the file.
func (f *File) NewWriter() *Writer {
	return &Writer{file: f, start: time.Now()}
}

// Writer streams rows into a new run of a File. The caller must end the
// writer with exactly one of Finish (sealing a Run that now owns the
// writer's extents) or Abort (freeing them).
type Writer struct {
	file  *File
	buf   []byte
	exts  []extent
	rows  int64
	bytes int64
	start time.Time
	done  bool
}

// Append encodes one row, flushing the buffer once it holds BlockSize
// bytes. On error (including a spill-budget trip) call Abort.
func (w *Writer) Append(row []relation.Value) error {
	n := len(w.buf)
	w.buf = appendRow(w.buf, row)
	w.bytes += int64(len(w.buf) - n)
	w.rows++
	if len(w.buf) >= BlockSize {
		return w.flush()
	}
	return nil
}

func (w *Writer) flush() error {
	var err error
	w.exts, err = w.file.write(w.buf, w.exts)
	w.buf = w.buf[:0]
	return err
}

// Finish flushes and seals the run; on error the writer aborts itself.
func (w *Writer) Finish() (*Run, error) {
	if w.done {
		return nil, fmt.Errorf("spill: writer already finished")
	}
	if err := w.flush(); err != nil {
		w.Abort()
		return nil, err
	}
	w.done = true
	obs.SpillRuns.Inc()
	obs.SpillBytes.Add(w.bytes)
	obs.SpillWriteLatency.ObserveDuration(time.Since(w.start))
	return &Run{file: w.file, exts: w.exts, Rows: w.rows, Bytes: w.bytes}, nil
}

// Abort discards an unfinished run, returning its extents to the file.
// Safe after a failed Append or Finish; a no-op after a successful Finish.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.file.release(w.exts)
	w.exts, w.buf = nil, nil
}

// Run is a sealed sequence of Rows rows over Bytes encoded bytes, stored
// in extents of its File until Drop.
type Run struct {
	file    *File
	exts    []extent
	Rows    int64
	Bytes   int64
	dropped bool
}

// Open returns a sequential reader over the run. A run may be opened
// many times.
func (r *Run) Open() *Reader { return &Reader{run: r} }

// Drop returns the run's extents to its file for reuse; readers over it
// must not be used afterwards. Idempotent and nil-safe.
func (r *Run) Drop() {
	if r == nil || r.dropped {
		return
	}
	r.dropped = true
	r.file.release(r.exts)
}

// Reader iterates a run's rows in write order. Unread bytes sit in a
// window refilled from the file a block at a time; a row larger than
// the window grows it.
type Reader struct {
	run *Run
	ext int   // extent being read
	off int64 // bytes of that extent already read
	buf []byte
	pos int // buf[pos:] is unread
}

// Rewind restarts the reader at the run's first row, keeping its buffer.
func (r *Reader) Rewind() {
	r.ext, r.off, r.buf, r.pos = 0, 0, r.buf[:0], 0
}

// AppendNext decodes the next row's values onto dst and returns the
// extended slice; ok is false at the end of the run.
func (r *Reader) AppendNext(dst []relation.Value) ([]relation.Value, bool, error) {
	for {
		out, n, err := decodeRow(dst, r.buf[r.pos:])
		if err != nil {
			return dst, false, err
		}
		if n > 0 {
			r.pos += n
			return out, true, nil
		}
		more, err := r.fill()
		if err != nil {
			return dst, false, err
		}
		if !more {
			if r.pos < len(r.buf) {
				return dst, false, errTruncated
			}
			return dst, false, nil
		}
	}
}

// fill moves the unread bytes to the front of the window and reads the
// next chunk of the run behind them, reporting false at the end of the
// run.
func (r *Reader) fill() (bool, error) {
	exts := r.run.exts
	for r.ext < len(exts) && r.off == exts[r.ext].n {
		r.ext, r.off = r.ext+1, 0
	}
	if r.ext == len(exts) {
		return false, nil
	}
	n := copy(r.buf, r.buf[r.pos:])
	r.buf, r.pos = r.buf[:n], 0
	if n == cap(r.buf) {
		r.buf = append(make([]byte, 0, max(2*n, BlockSize)), r.buf...)
	}
	e := exts[r.ext]
	chunk := min(int64(cap(r.buf)-n), e.n-r.off)
	m, err := r.run.file.f.ReadAt(r.buf[n:n+int(chunk)], e.off+r.off)
	if int64(m) < chunk {
		if err == nil || errors.Is(err, io.EOF) {
			return false, errTruncated
		}
		return false, fmt.Errorf("spill: %w", err)
	}
	r.buf = r.buf[:n+m]
	r.off += chunk
	return true, nil
}

// Prefix is the filename prefix of every spill file this package
// creates (the CreateTemp pattern is Prefix + random + ".run").
const Prefix = "ojspill-"

// DefaultStaleAge is the age past which SweepStale considers an
// orphaned spill file dead. Live queries hold their files for seconds to
// minutes; an hour-old file can only belong to a process that died
// mid-query.
const DefaultStaleAge = time.Hour

// SweepStale removes ojspill-* files in dir whose modification time is
// older than olderThan (DefaultStaleAge when olderThan <= 0), returning
// how many were removed. Spill files are normally deleted by Close, but
// a process killed mid-query orphans whatever it had on disk; the server
// and shell sweep their spill directory on startup. The age threshold
// keeps a sweep from deleting files a concurrently running process still
// owns (the default spill dir is the shared OS temp dir). Missing
// directories are not an error — there is simply nothing to sweep.
func SweepStale(dir string, olderThan time.Duration) (int, error) {
	if olderThan <= 0 {
		olderThan = DefaultStaleAge
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("spill: sweep %s: %w", dir, err)
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	var firstErr error
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), Prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			if firstErr == nil && !errors.Is(err, os.ErrNotExist) {
				firstErr = err
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}
