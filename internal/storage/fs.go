package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FS is the narrow filesystem surface the WAL runs on. The default OsFS
// passes straight through to the os package; MemFS keeps the files in
// memory for simulations; FaultFS wraps any FS and injects scheduled disk
// faults (failed fsyncs, torn writes, bit flips on read) so the torn-tail
// recovery and sticky-werr fail-stop semantics can be exercised against a
// live log rather than crafted on-disk corpses.
type FS interface {
	MkdirAll(path string) error
	// ReadDir returns the names (not paths) of the entries in dir.
	ReadDir(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte) error
	// OpenFile opens path with os.O_* flags for writing (the WAL never
	// reads through an open handle).
	OpenFile(path string, flag int) (File, error)
	Truncate(path string, size int64) error
	Remove(path string) error
	Rename(oldPath, newPath string) error
}

// File is an open, writable WAL segment or atomic-replace temporary.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OsFS is the production FS: direct os package calls.
type OsFS struct{}

var _ FS = OsFS{}

func (OsFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (OsFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

func (OsFS) ReadFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func (OsFS) WriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func (OsFS) Truncate(path string, size int64) error   { return os.Truncate(path, size) }
func (OsFS) Remove(path string) error                 { return os.Remove(path) }
func (OsFS) Rename(oldPath, newPath string) error     { return os.Rename(oldPath, newPath) }
func (OsFS) OpenFile(path string, flag int) (File, error) {
	return os.OpenFile(path, flag, 0o644)
}

// MemFS is an in-memory FS: each file is a byte slice, and a write is
// durable when it returns. Simulated replicas run their Log on one, and a
// simulated restart reopens the directory its crashed predecessor wrote.
// Directories are implicit, paths are compared as Log joins them, writes
// append, Truncate only shortens, and an open file keeps its bytes across
// Remove and Rename, as a descriptor does. Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	mu   *sync.Mutex // the MemFS's
	data []byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memFile)} }

func notExist(path string) error { return &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist} }

func (m *MemFS) MkdirAll(string) error { return nil }

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string // in map order: Log sorts the segments it scans
	for path := range m.files {
		if filepath.Dir(path) == filepath.Clean(dir) {
			names = append(names, filepath.Base(path))
		}
	}
	return names, nil
}

func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[path]; ok {
		return append([]byte(nil), f.data...), nil
	}
	return nil, notExist(path)
}

func (m *MemFS) WriteFile(path string, data []byte) error {
	f, err := m.OpenFile(path, os.O_CREATE|os.O_TRUNC)
	if err == nil {
		_, err = f.Write(data)
	}
	return err
}

func (m *MemFS) OpenFile(path string, flag int) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist(path)
	case !ok:
		f = &memFile{mu: &m.mu}
		m.files[path] = f
	case flag&os.O_TRUNC != 0:
		f.data = f.data[:0]
	}
	return f, nil
}

func (m *MemFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return notExist(path)
	}
	f.data = f.data[:min(size, int64(len(f.data)))]
	return nil
}

func (m *MemFS) Remove(path string) error             { return m.move(path, "") }
func (m *MemFS) Rename(oldPath, newPath string) error { return m.move(oldPath, newPath) }

// move renames the file at from to to, or deletes it when to is empty.
func (m *MemFS) move(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[from]
	if !ok {
		return notExist(from)
	}
	delete(m.files, from)
	if to != "" {
		m.files[to] = f
	}
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.data = append(f.data, p...)
	f.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// FaultStats counts the faults a FaultFS actually delivered.
type FaultStats struct {
	Writes    int64 // Write calls observed (across all files)
	Bytes     int64 // bytes accepted by Write (after tearing)
	Syncs     int64 // Sync calls observed
	Tears     int64 // torn writes delivered
	SyncFails int64 // injected fsync failures delivered
	BitFlips  int64 // read-side bit flips delivered
}

// FaultFS wraps an FS and injects scheduled disk faults. Faults are armed
// from the test and fire deterministically against the cumulative write
// stream (tears), the Sync call sequence (fsync failures), or the next
// qualifying read (bit flips). All methods are safe for concurrent use —
// the WAL's syncer goroutine writes while tests arm faults.
type FaultFS struct {
	inner FS

	mu        sync.Mutex
	written   int64 // cumulative bytes offered to Write across all files
	tearAt    int64 // -1 = disarmed; tear when written crosses this offset
	failSyncs int   // number of upcoming Sync calls to fail
	flipAt    int64 // -1 = disarmed; flip a bit at this offset of the next long-enough read
	stats     FaultStats
}

// NewFaultFS wraps inner with all faults disarmed.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OsFS{}
	}
	return &FaultFS{inner: inner, tearAt: -1, flipAt: -1}
}

var _ FS = (*FaultFS)(nil)

// BytesWritten returns the cumulative bytes offered to Write so far, the
// coordinate system TearWriteAt schedules against.
func (f *FaultFS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// TearWriteAt arms a torn write: the Write call during which the cumulative
// write stream crosses offset persists only the bytes up to it, then fails.
// This models a crash mid-write: a partial frame reaches the disk.
func (f *FaultFS) TearWriteAt(offset int64) {
	f.mu.Lock()
	f.tearAt = offset
	f.mu.Unlock()
}

// FailNextSyncs arms the next k Sync calls (on any file) to fail.
func (f *FaultFS) FailNextSyncs(k int) {
	f.mu.Lock()
	f.failSyncs = k
	f.mu.Unlock()
}

// FlipBitOnRead arms a single-bit corruption at byte offset of the next
// ReadFile whose result is long enough to contain it.
func (f *FaultFS) FlipBitOnRead(offset int64) {
	f.mu.Lock()
	f.flipAt = offset
	f.mu.Unlock()
}

// FaultStats returns the delivered-fault counters.
func (f *FaultFS) FaultStats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FaultFS) MkdirAll(path string) error           { return f.inner.MkdirAll(path) }
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f *FaultFS) WriteFile(path string, data []byte) error {
	return f.inner.WriteFile(path, data)
}
func (f *FaultFS) Truncate(path string, size int64) error { return f.inner.Truncate(path, size) }
func (f *FaultFS) Remove(path string) error               { return f.inner.Remove(path) }
func (f *FaultFS) Rename(oldPath, newPath string) error   { return f.inner.Rename(oldPath, newPath) }

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	buf, err := f.inner.ReadFile(path)
	if err != nil {
		return buf, err
	}
	f.mu.Lock()
	if f.flipAt >= 0 && int64(len(buf)) > f.flipAt {
		buf[f.flipAt] ^= 0x40
		f.flipAt = -1
		f.stats.BitFlips++
	}
	f.mu.Unlock()
	return buf, nil
}

func (f *FaultFS) OpenFile(path string, flag int) (File, error) {
	inner, err := f.inner.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	ff.fs.stats.Writes++
	tear := -1
	if ff.fs.tearAt >= 0 && ff.fs.written+int64(len(p)) > ff.fs.tearAt {
		tear = int(ff.fs.tearAt - ff.fs.written)
		if tear < 0 {
			tear = 0
		}
		ff.fs.tearAt = -1
		ff.fs.stats.Tears++
	}
	ff.fs.mu.Unlock()
	if tear >= 0 {
		n, err := ff.inner.Write(p[:tear])
		ff.fs.mu.Lock()
		ff.fs.written += int64(n)
		ff.fs.stats.Bytes += int64(n)
		ff.fs.mu.Unlock()
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("storage: injected torn write after %d of %d bytes", n, len(p))
	}
	n, err := ff.inner.Write(p)
	ff.fs.mu.Lock()
	ff.fs.written += int64(n)
	ff.fs.stats.Bytes += int64(n)
	ff.fs.mu.Unlock()
	return n, err
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	ff.fs.stats.Syncs++
	fail := ff.fs.failSyncs > 0
	if fail {
		ff.fs.failSyncs--
		ff.fs.stats.SyncFails++
	}
	ff.fs.mu.Unlock()
	if fail {
		return fmt.Errorf("storage: injected fsync failure")
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
