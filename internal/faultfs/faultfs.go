// Package faultfs is a fault-injecting filesystem layer for crash and
// chaos testing. It wraps any wal.FS and perturbs the write path with a
// seeded, deterministic fault schedule: short writes, write errors
// (ENOSPC), fsync errors, and a panic at the Nth operation (the
// in-process stand-in for SIGKILL).
//
// Determinism is the point. Whether operation number N faults — and
// how — is a pure function of (seed, N): the decision comes from a
// splitmix64 stream indexed by a global operation counter, never from
// wall-clock time or math/rand global state. Two runs issuing the same
// operation sequence against the same seed inject byte-identical fault
// logs (Log()), which is what lets the chaos sweep in internal/wal's
// property tests shrink a failure to a seed number.
//
// The probabilities are expressed per mille (0–1000) so schedules stay
// integer-exact; Options documents each fault class.
//
//dwmlint:ignore testonly test support by design: wal's crash and chaos tests drive the journal through it, and production never injects faults
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"

	"repro/internal/stats"
	"repro/internal/wal"
)

// Injected fault errors. Callers match with errors.Is.
var (
	// ErrInjectedWrite is the injected write failure (the ENOSPC class:
	// the write consumed no bytes).
	ErrInjectedWrite = errors.New("faultfs: injected write error (no space)")
	// ErrInjectedSync is the injected fsync failure (the fsyncgate
	// class: dirty pages may or may not have reached the platter).
	ErrInjectedSync = errors.New("faultfs: injected fsync error")
	// ErrInjectedShortWrite is the injected partial write: some prefix
	// of the buffer landed, then the device "failed".
	ErrInjectedShortWrite = errors.New("faultfs: injected short write")
)

// Options configures the fault schedule. All probabilities are per
// mille (out of 1000) per eligible operation; zero disables that class.
type Options struct {
	// Seed drives the schedule. Same seed + same operation sequence =
	// same faults, always.
	Seed int64
	// ShortWritePerMille: probability a Write commits only a prefix
	// (deterministically chosen from the op index) and returns
	// ErrInjectedShortWrite.
	ShortWritePerMille int
	// WriteErrPerMille: probability a Write fails outright with
	// ErrInjectedWrite before consuming any bytes (ENOSPC).
	WriteErrPerMille int
	// SyncErrPerMille: probability a Sync fails with ErrInjectedSync.
	SyncErrPerMille int
	// PanicAtOp, when positive, panics on exactly the Nth counted
	// operation (1-based) — the in-process crash for tests that cannot
	// afford a real SIGKILL. The panic value is ErrCrash, so harnesses
	// can recover selectively.
	PanicAtOp int
}

// ErrCrash is the panic value for PanicAtOp.
var ErrCrash = errors.New("faultfs: injected crash")

// Event is one entry in the injected-fault log.
type Event struct {
	// Op is the global 1-based operation index the fault hit.
	Op int64
	// Kind is the operation class: "write" or "sync".
	Kind string
	// Fault names what was injected: "short", "enospc", "eio",
	// "panic".
	Fault string
}

func (e Event) String() string {
	return fmt.Sprintf("op %d %s: %s", e.Op, e.Kind, e.Fault)
}

// FS wraps an inner wal.FS with the fault schedule. It implements
// wal.FS; files it opens implement wal.File with faults applied to
// Write and Sync (the durability-critical path — reads, opens, and
// truncates pass through so repair logic is always exercised against
// real content).
type FS struct {
	inner wal.FS
	opts  Options

	mu     sync.Mutex
	op     int64   //dwmlint:guard mu
	events []Event //dwmlint:guard mu
}

// New wraps inner (nil selects the real filesystem) with the schedule
// in opts.
func New(inner wal.FS, opts Options) *FS {
	if inner == nil {
		inner = wal.OS()
	}
	return &FS{inner: inner, opts: opts}
}

// draw returns a deterministic value in [0, 1000) for (seed, op, lane).
// Lanes decorrelate independent decisions about the same operation
// (fault? which class? how short?).
func (f *FS) draw(op int64, lane uint64) int {
	z := uint64(f.opts.Seed)*0x9E3779B97F4A7C15 + uint64(op)*0xD1B54A32D192ED03 + lane*0x8CB92BA72F3D8DD7
	return int(stats.Mix64(z) % 1000)
}

// step counts one operation and decides its fate. It returns the op
// index and the fault to inject ("" for none), recording non-empty
// faults in the log. The panic for PanicAtOp fires here, after the
// event is logged, so a crashed run's log still ends with the crash.
func (f *FS) step(kind string) (int64, string) {
	f.mu.Lock()
	f.op++
	op := f.op
	fault := ""
	if f.opts.PanicAtOp > 0 && op == int64(f.opts.PanicAtOp) {
		fault = "panic"
	} else {
		switch kind {
		case "write":
			if f.draw(op, 1) < f.opts.WriteErrPerMille {
				fault = "enospc"
			} else if f.draw(op, 2) < f.opts.ShortWritePerMille {
				fault = "short"
			}
		case "sync":
			if f.draw(op, 3) < f.opts.SyncErrPerMille {
				fault = "eio"
			}
		}
	}
	if fault != "" {
		f.events = append(f.events, Event{Op: op, Kind: kind, Fault: fault})
	}
	f.mu.Unlock()
	if fault == "panic" {
		panic(ErrCrash)
	}
	return op, fault
}

// Log returns a copy of the injected-fault log, in operation order.
func (f *FS) Log() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Event(nil), f.events...)
}

// LogString renders the fault log one event per line — the
// determinism-smoke artifact: same seed, same op sequence, same string.
func (f *FS) LogString() string {
	var b strings.Builder
	for _, e := range f.Log() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Ops returns the number of operations counted so far.
func (f *FS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.op
}

// OpenFile opens a file on the inner FS and wraps it for injection.
func (f *FS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

// ReadDir passes through.
func (f *FS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// MkdirAll passes through.
func (f *FS) MkdirAll(dir string, perm fs.FileMode) error { return f.inner.MkdirAll(dir, perm) }

// WriteFile passes through (quarantine blobs are best-effort already).
func (f *FS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return f.inner.WriteFile(name, data, perm)
}

// file wraps wal.File with the schedule.
type file struct {
	fs    *FS
	inner wal.File
}

func (w *file) Read(p []byte) (int, error)                { return w.inner.Read(p) }
func (w *file) Close() error                              { return w.inner.Close() }
func (w *file) Truncate(size int64) error                 { return w.inner.Truncate(size) }
func (w *file) Seek(off int64, whence int) (int64, error) { return w.inner.Seek(off, whence) }

func (w *file) Write(p []byte) (int, error) {
	op, fault := w.fs.step("write")
	switch fault {
	case "enospc":
		return 0, ErrInjectedWrite
	case "short":
		// Commit a deterministic strict prefix, then fail — the torn
		// write a crash leaves behind.
		n := 0
		if len(p) > 1 {
			n = int(stats.Mix64(uint64(op)*0x9E3779B97F4A7C15+uint64(w.fs.opts.Seed)) % uint64(len(p)))
		}
		if n > 0 {
			if m, err := w.inner.Write(p[:n]); err != nil {
				return m, err
			}
		}
		return n, ErrInjectedShortWrite
	}
	return w.inner.Write(p)
}

func (w *file) Sync() error {
	if _, fault := w.fs.step("sync"); fault == "eio" {
		return ErrInjectedSync
	}
	return w.inner.Sync()
}
