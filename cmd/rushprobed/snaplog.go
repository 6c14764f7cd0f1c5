package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rushprobe"
)

// snaplogCompactRatio triggers compaction once the delta tail outgrows
// the base snapshot: past 1x, replaying the log costs more than a full
// rewrite would.
const snaplogCompactRatio = 1.0

// snaplogStore manages the daemon's incremental binary snapshot log:
// restore at startup (torn tails recovered loudly, corruption fatal),
// periodic dirty-node delta appends with fsync, and compaction — a
// full fsync-before-rename rewrite — at startup unless the log is
// already compact, when the delta tail outgrows the base, after a
// failed write, on POST /v1/snapshot, and at shutdown.
type snaplogStore struct {
	path   string
	fleet  *rushprobe.Fleet
	logger *slog.Logger

	// restoredCompact reports that the restored log was exactly one full
	// snapshot, which startup can reuse instead of rewriting.
	restoredCompact bool

	mu          sync.Mutex
	file        appendFile // O_APPEND handle between compactions
	base        int64      // bytes of the last full snapshot
	appended    int64      // delta bytes since the last compaction
	deltas      int64
	deltaNodes  int64
	compactions int64
	// broken is set by any failed write: the log may end in a torn
	// frame and the fleet may have marked unpersisted nodes clean, so
	// the next appendDelta compacts instead of appending.
	broken bool
}

// appendFile is the handle delta appends go through: the *os.File
// open() returns, or a fault-injecting stand-in under test.
type appendFile interface {
	io.Writer
	Sync() error
	Close() error
}

func newSnaplogStore(f *rushprobe.Fleet, path string, logger *slog.Logger) *snaplogStore {
	return &snaplogStore{path: path, fleet: f, logger: logger}
}

// restore loads the log into the fleet. A missing file is a fresh
// start; a torn tail (crash mid-append) is dropped and logged loudly;
// anything else — corruption, config mismatch, an empty file — is a
// hard error naming the path, never a silent fresh start.
func (st *snaplogStore) restore() (bool, error) {
	file, err := os.Open(st.path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer file.Close()
	t0 := time.Now()
	info, err := st.fleet.RestoreBinary(file)
	if err != nil {
		return false, fmt.Errorf("snapshot log %s is not restorable (remove or replace it to start fresh): %w", st.path, err)
	}
	st.restoredCompact = !info.Truncated && info.Generations == 1 && info.Frames == info.Nodes+1
	if info.Truncated {
		st.logger.Warn("snapshot log has a torn tail — dropped it, recovered the valid prefix",
			"path", st.path, "tornOffset", info.TornOffset,
			"frames", info.Frames, "nodes", info.Nodes)
	}
	st.logger.Info("snapshot log restored",
		"path", st.path, "nodes", info.Nodes, "frames", info.Frames,
		"generations", info.Generations, "duration", time.Since(t0))
	return true, nil
}

// start establishes the on-disk log and the append handle once the
// fleet holds its startup state. A log that restored as exactly one
// full snapshot — what a clean shutdown leaves — is already compact:
// it is reopened and fsynced, file and directory, instead of being
// rewritten. A delta tail, a torn tail, a JSON import and a fresh
// start are all compacted.
func (st *snaplogStore) start() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.restoredCompact {
		return st.compactLocked()
	}
	if err := st.open(); err != nil {
		return err
	}
	if err := st.file.Sync(); err != nil {
		return fmt.Errorf("snapshot log %s: sync: %w", st.path, err)
	}
	return syncDir(filepath.Dir(st.path))
}

// open (re)opens the append handle and records the current size as the
// base. Called after restore/compact with the lock already held or
// before any concurrency exists.
func (st *snaplogStore) open() error {
	file, err := os.OpenFile(st.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fi, err := file.Stat()
	if err != nil {
		file.Close()
		return err
	}
	st.file = file
	st.base = fi.Size()
	st.appended = 0
	return nil
}

// countingWriter tracks delta bytes so the compaction trigger can
// compare tail size against the base snapshot.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// appendDelta appends the dirty nodes to the log and fsyncs. When the
// accumulated delta tail outgrows the base snapshot, or an earlier
// write failed, it compacts instead. Idle intervals (no dirty nodes)
// cost one counter scan and no I/O.
func (st *snaplogStore) appendDelta() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.broken {
		return st.compactLocked()
	}
	if st.file == nil {
		return fmt.Errorf("snapshot log %s is not open", st.path)
	}
	if st.fleet.DirtyNodes() == 0 {
		return nil
	}
	cw := &countingWriter{w: st.file}
	nodes, err := st.fleet.SnapshotBinaryDelta(cw)
	st.appended += cw.n
	if err != nil {
		// The tail may now hold a torn frame, which a later append would
		// bury mid-log, and the failed nodes are already marked clean.
		// The next tick compacts instead: a full rewrite from memory.
		st.broken = true
		return fmt.Errorf("snapshot log %s: delta append: %w", st.path, err)
	}
	if err := st.file.Sync(); err != nil {
		st.broken = true
		return fmt.Errorf("snapshot log %s: sync: %w", st.path, err)
	}
	st.deltas++
	st.deltaNodes += int64(nodes)
	if float64(st.appended) > snaplogCompactRatio*float64(st.base) {
		return st.compactLocked()
	}
	return nil
}

// compact rewrites the log as one full snapshot, atomically and
// durably (temp + fsync + rename), and reopens the append handle.
func (st *snaplogStore) compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compactLocked()
}

// compactLocked rewrites the log. A failure leaves the store broken,
// so the next appendDelta retries the full rewrite: the failed write
// may already have marked nodes clean.
func (st *snaplogStore) compactLocked() error {
	if err := st.rewriteLocked(); err != nil {
		st.broken = true
		return err
	}
	st.broken = false
	return nil
}

func (st *snaplogStore) rewriteLocked() error {
	dir := filepath.Dir(st.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(st.path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := st.fleet.SnapshotBinary(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot log %s: compact: %w", st.path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	size, err := tmp.Seek(0, io.SeekEnd)
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), st.path); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if st.file != nil {
		//rushlint:allow durability — closing the pre-compaction inode: the rename already published the new log, so this close failing loses nothing
		st.file.Close() // old inode, fully superseded by the rename
		st.file = nil
	}
	if err := st.open(); err != nil {
		return err
	}
	st.base = size
	st.compactions++
	return nil
}

// stats snapshots the store's counters for /metrics.
func (st *snaplogStore) stats() (base, appended, deltas, deltaNodes, compactions int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.base, st.appended, st.deltas, st.deltaNodes, st.compactions
}

// close compacts one last time (shutdown persistence) and releases the
// append handle.
func (st *snaplogStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.compactLocked(); err != nil {
		return err
	}
	if st.file == nil {
		return nil
	}
	err := st.file.Close()
	st.file = nil
	return err
}
