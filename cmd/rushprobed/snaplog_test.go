package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"rushprobe"
)

// faultyFile fails the first delta append one way and passes every
// later call through to the real file.
type faultyFile struct {
	*os.File
	mode    string
	tripped bool
	held    []byte // sync-error: written but not yet on disk
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.tripped {
		return f.File.Write(p)
	}
	switch f.mode {
	case "short-write":
		f.tripped = true
		// Cut inside a frame, not on the boundary an even split of
		// same-sized frames would land on.
		n, err := f.File.Write(p[:len(p)/2+1])
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	case "write-error":
		f.tripped = true
		return 0, syscall.EIO
	default: // sync-error: the write lands in a cache the failed fsync loses
		f.held = append(f.held, p...)
		return len(p), nil
	}
}

func (f *faultyFile) Sync() error {
	if !f.tripped && f.mode == "sync-error" {
		f.tripped = true
		f.held = nil
		return syscall.EIO
	}
	return f.File.Sync()
}

// fleetJSON is the fleet's full learned state as comparable bytes.
func fleetJSON(t *testing.T, f *rushprobe.Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnaplogFailedAppendRecovery: a delta append that fails — short
// write, write error, or fsync error — must neither leave a torn frame
// that the next append buries mid-log nor lose the nodes it had
// already marked clean. One more tick after the failure, the log on
// disk restores to every node's latest state.
func TestSnaplogFailedAppendRecovery(t *testing.T) {
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"short-write", "write-error", "sync-error"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.snaplog")
			f := newTestFleet(t)
			ids := populateFleet(t, f, 30)
			st := newSnaplogStore(f, path, logger)
			if err := st.compact(); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids[:10] {
				if _, err := f.SetStrategy(id, string(rushprobe.SNIPRH)); err != nil {
					t.Fatal(err)
				}
			}
			st.file = &faultyFile{File: st.file.(*os.File), mode: mode}
			if err := st.appendDelta(); err == nil {
				t.Fatal("failed delta append reported success")
			}
			for _, id := range ids[5:20] {
				if _, err := f.SetStrategy(id, string(rushprobe.SNIPAT)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.appendDelta(); err != nil {
				t.Fatalf("tick after the failure: %v", err)
			}

			// Crash here: restore whatever the log holds.
			fb := newTestFleet(t)
			if restored, err := newSnaplogStore(fb, path, logger).restore(); err != nil || !restored {
				t.Fatalf("restore after a failed append: restored=%v err=%v", restored, err)
			}
			if !bytes.Equal(fleetJSON(t, fb), fleetJSON(t, f)) {
				t.Fatal("restored log is missing state the failed append had marked clean")
			}
			if err := st.close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnaplogStartupRewritesOnlyWhenNeeded: a log that restores as
// exactly one full snapshot — what a clean shutdown leaves — is reused
// at startup, same inode and no compaction; every other startup state
// is compacted into one.
func TestSnaplogStartupRewritesOnlyWhenNeeded(t *testing.T) {
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	// cleanLog writes the log a clean shutdown leaves and returns the
	// fleet it holds.
	cleanLog := func(t *testing.T, path string) (*rushprobe.Fleet, []string) {
		f := newTestFleet(t)
		ids := populateFleet(t, f, 20)
		st := newSnaplogStore(f, path, logger)
		if err := st.compact(); err != nil {
			t.Fatal(err)
		}
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
		return f, ids
	}
	appendToLog := func(t *testing.T, path string, data []byte) {
		file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dirtyDelta := func(t *testing.T, f *rushprobe.Fleet, id string) []byte {
		if _, err := f.SetStrategy(id, string(rushprobe.SNIPRH)); err != nil {
			t.Fatal(err)
		}
		var delta bytes.Buffer
		if _, err := f.SnapshotBinaryDelta(&delta); err != nil {
			t.Fatal(err)
		}
		return delta.Bytes()
	}

	cases := []struct {
		name    string
		prepare func(t *testing.T, dir string) (jsonPath string)
		rewrite bool
	}{
		{"clean single generation", func(t *testing.T, dir string) string {
			cleanLog(t, filepath.Join(dir, "fleet.snaplog"))
			return ""
		}, false},
		{"delta tail", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "fleet.snaplog")
			f, ids := cleanLog(t, path)
			appendToLog(t, path, dirtyDelta(t, f, ids[0]))
			return ""
		}, true},
		{"torn tail", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "fleet.snaplog")
			f, ids := cleanLog(t, path)
			delta := dirtyDelta(t, f, ids[0])
			appendToLog(t, path, delta[:len(delta)/2])
			return ""
		}, true},
		{"JSON import", func(t *testing.T, dir string) string {
			jsonPath := filepath.Join(dir, "fleet.json")
			f := newTestFleet(t)
			populateFleet(t, f, 20)
			if err := saveSnapshot(f, jsonPath); err != nil {
				t.Fatal(err)
			}
			return jsonPath
		}, true},
		{"fresh start", func(t *testing.T, dir string) string { return "" }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "fleet.snaplog")
			jsonPath := tc.prepare(t, dir)
			before, statErr := os.Stat(path)

			srv := newServer(newTestFleet(t), jsonPath)
			if err := srv.openSnaplog(path, logger); err != nil {
				t.Fatal(err)
			}
			defer srv.snaplog.close()
			after, err := os.Stat(path)
			if err != nil {
				t.Fatalf("no log on disk after startup: %v", err)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			want := "\nrushprobe_snaplog_compactions_total 1\n"
			if !tc.rewrite {
				want = "\nrushprobe_snaplog_compactions_total 0\n"
			}
			if !strings.Contains(rec.Body.String(), want) {
				t.Fatalf("/metrics lacks %q", strings.TrimSpace(want))
			}
			if statErr == nil && os.SameFile(before, after) == tc.rewrite {
				t.Fatalf("rewrite=%v but the log's inode changed=%v", tc.rewrite, !os.SameFile(before, after))
			}

			// Either way the store appends, and the log restores to the
			// live state.
			ids := srv.fleet.NodeIDs()
			if len(ids) > 0 {
				if _, err := srv.fleet.SetStrategy(ids[len(ids)-1], string(rushprobe.SNIPAT)); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.snaplog.appendDelta(); err != nil {
				t.Fatal(err)
			}
			fb := newTestFleet(t)
			if _, err := newSnaplogStore(fb, path, logger).restore(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fleetJSON(t, fb), fleetJSON(t, srv.fleet)) {
				t.Fatal("log does not restore to the live state after startup and one append")
			}
		})
	}
}
