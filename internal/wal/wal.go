// Package wal implements a checksummed, segment-based write-ahead
// journal. Records are opaque byte payloads framed as
//
//	[4-byte little-endian payload length][4-byte CRC-32C of payload][payload]
//
// and appended to numbered segment files (wal-00000001.seg, ...) that
// rotate at a size threshold. Opening a journal repairs it first: a
// torn tail — the partial record a crash mid-write leaves at the end of
// the last segment — is truncated away, and a corrupt record anywhere
// else (a bit flip, a torn non-final segment) is quarantined: the
// suspect bytes are copied to a .quarantine side file for forensics and
// the segment is truncated at the last valid record. Either way the log
// recovers to the longest valid prefix and keeps appending; it never
// refuses to open because of damage past that prefix.
//
// Durability is governed by a sync policy: SyncAlways (fsync after
// every append — the default, under which an acknowledged append is
// guaranteed to survive a crash) or SyncNever (fsync only on rotation
// and close). Appends are atomic at the record level: a failed write is
// rolled back by truncating the segment to its pre-append size, so a
// record is either fully committed or entirely absent — the invariant
// the fault-injection property tests (see internal/faultfs) pin.
//
// All storage goes through the FS interface (fs.go) so tests can inject
// faults; obs counters and the fsync-latency histogram are registered
// under Options.MetricsPrefix ("wal" by default, "serve.wal" when
// embedded in the placement service).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append. An acknowledged append is
	// durable. This is the zero value.
	SyncAlways SyncPolicy = iota
	// SyncNever fsyncs only on rotation and close.
	SyncNever
)

// MaxRecordBytes bounds a single record's payload. It matches the
// service's request-body cap; a length prefix beyond it is treated as
// corruption during repair.
const MaxRecordBytes = 64 << 20

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 4 << 20

// Options configures a journal.
type Options struct {
	// Dir is the journal directory; it is created if missing.
	Dir string
	// SegmentBytes is the rotation threshold; 0 selects
	// DefaultSegmentBytes. A single record larger than the threshold
	// still fits: rotation happens between records, never inside one.
	SegmentBytes int64
	// Policy selects the fsync cadence; the zero value is SyncAlways.
	Policy SyncPolicy
	// FS is the storage layer; nil selects the real filesystem.
	FS FS
	// MetricsPrefix namespaces the journal's obs series; empty selects
	// "wal". The series are <prefix>.appends, <prefix>.syncs,
	// <prefix>.replayed_records, <prefix>.torn_truncations,
	// <prefix>.quarantines, <prefix>.rotations, <prefix>.append_errors,
	// and the <prefix>.fsync_ms latency histogram.
	MetricsPrefix string
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

// ErrBroken is wrapped by every operation on a log whose storage failed
// in a way that leaves the committed prefix unknowable (a failed append
// rollback, or an fsync error — after fsyncgate, a failed fsync means
// the kernel may have dropped dirty pages silently). The log refuses
// further appends; the next Open repairs to the longest valid prefix.
var ErrBroken = errors.New("wal: log is broken")

// Stats is a point-in-time summary of one log's activity.
type Stats struct {
	// Appends and Syncs count successful operations since Open.
	Appends int64
	Syncs   int64
	// Replayed counts records delivered by Replay.
	Replayed int64
	// TornTruncations counts torn tails truncated during repair;
	// Quarantines counts corrupt regions copied aside during repair.
	TornTruncations int64
	Quarantines     int64
	// Rotations counts segment rollovers since Open.
	Rotations int64
	// Segments is the current number of live segment files.
	Segments int
}

// segInfo describes one committed segment discovered during repair.
type segInfo struct {
	seq  int
	name string // full path
	size int64  // valid bytes (post-repair)
}

// Log is an append-only journal. All methods are safe for concurrent
// use; appends are serialized under one lock, so record order is total.
type Log struct {
	opts Options
	fsys FS

	mu        sync.Mutex
	segs      []segInfo //dwmlint:guard mu
	cur       File      //dwmlint:guard mu
	curSeq    int       //dwmlint:guard mu
	curSize   int64     //dwmlint:guard mu
	replaying bool      //dwmlint:guard mu
	broken    error     //dwmlint:guard mu
	stats     Stats     //dwmlint:guard mu

	mAppends    *obs.Counter
	mSyncs      *obs.Counter
	mReplayed   *obs.Counter
	mTorn       *obs.Counter
	mQuarantine *obs.Counter
	mRotations  *obs.Counter
	mAppendErrs *obs.Counter
	mFsyncMS    *obs.Histogram
}

// Open repairs and opens the journal in o.Dir. Damage is healed, never
// fatal: torn tails are truncated, corrupt regions quarantined, and the
// log comes back holding the longest valid record prefix. Call Replay
// to stream the committed records, then Append to extend the log.
func Open(o Options) (*Log, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	fsys := o.FS
	if fsys == nil {
		fsys = OS()
	}
	prefix := o.MetricsPrefix
	if prefix == "" {
		prefix = "wal"
	}
	l := &Log{
		opts:        o,
		fsys:        fsys,
		mAppends:    obs.GetCounter(prefix + ".appends"),
		mSyncs:      obs.GetCounter(prefix + ".syncs"),
		mReplayed:   obs.GetCounter(prefix + ".replayed_records"),
		mTorn:       obs.GetCounter(prefix + ".torn_truncations"),
		mQuarantine: obs.GetCounter(prefix + ".quarantines"),
		mRotations:  obs.GetCounter(prefix + ".rotations"),
		mAppendErrs: obs.GetCounter(prefix + ".append_errors"),
		mFsyncMS: obs.GetHistogram(prefix+".fsync_ms",
			[]float64{1, 5, 10, 50, 100, 500, 1000}),
	}
	if err := fsys.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := l.scanAndRepair(); err != nil {
		return nil, err
	}
	if err := l.openTail(); err != nil {
		return nil, err
	}
	return l, nil
}

// openTail opens the last segment for appending (creating segment 1 in
// a fresh directory) and positions the write offset at its repaired end.
// Runs only from Open, before the Log is published, so it holds mu by
// exclusivity.
//
//dwmlint:holds mu
func (l *Log) openTail() error {
	if len(l.segs) == 0 {
		l.segs = append(l.segs, segInfo{seq: 1, name: l.segPath(1)})
	}
	tail := &l.segs[len(l.segs)-1]
	f, err := l.fsys.OpenFile(tail.name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open tail: %w", err)
	}
	// Seek to the repaired end, not the physical end: repair may have
	// been unable to shrink the file (read-only quarantine failure), and
	// appending past garbage would hide it behind the valid prefix.
	if _, err := f.Seek(tail.size, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: seek tail: %w", err)
	}
	l.cur = f
	l.curSeq = tail.seq
	l.curSize = tail.size
	l.stats.Segments = len(l.segs)
	return nil
}

// frame renders one record: length, CRC-32C, payload.
func frame(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	return buf
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Append commits one record. On return with a nil error the record is
// framed, written, and — under SyncAlways — fsynced; a non-nil error
// means the record was rolled back and is absent from the log (or, if
// the rollback itself failed, the log is broken and says so on every
// subsequent call). Every non-nil return counts once in
// <prefix>.append_errors.
func (l *Log) Append(payload []byte) (err error) {
	defer func() {
		if err != nil {
			l.mAppendErrs.Inc()
		}
	}()
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds max %d", len(payload), MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	buf := frame(payload)
	if l.curSize > 0 && l.curSize+int64(len(buf)) > l.opts.segmentBytes() {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	n, err := l.cur.Write(buf)
	if err != nil || n != len(buf) {
		if err == nil {
			err = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(buf))
		}
		// Roll the partial record back so the on-disk prefix stays valid.
		// If the rollback fails too, the committed prefix is unknowable
		// from here — brick the log rather than risk interleaving new
		// records with half-written garbage.
		if terr := l.cur.Truncate(l.curSize); terr != nil {
			l.broken = fmt.Errorf("append failed (%v) and rollback failed (%v)", err, terr)
			return fmt.Errorf("%w: %v", ErrBroken, l.broken)
		}
		if _, serr := l.cur.Seek(l.curSize, 0); serr != nil {
			l.broken = fmt.Errorf("append failed (%v) and re-seek failed (%v)", err, serr)
			return fmt.Errorf("%w: %v", ErrBroken, l.broken)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.curSize += int64(n)
	l.segs[len(l.segs)-1].size = l.curSize
	if l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	l.stats.Appends++
	l.mAppends.Inc()
	return nil
}

// Sync forces an fsync of the current segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	return l.syncLocked()
}

// syncLocked fsyncs the current segment and times it. A failed fsync
// breaks the log: the kernel may have dropped the dirty pages, so the
// durable prefix is unknowable until the next Open re-reads the disk.
//
//dwmlint:holds mu
func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.cur.Sync()
	l.mFsyncMS.Observe(time.Since(start).Milliseconds())
	if err != nil {
		l.broken = fmt.Errorf("fsync: %v", err)
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	l.stats.Syncs++
	l.mSyncs.Inc()
	return nil
}

// rotate seals the current segment (fsync + close) and opens the next.
//
//dwmlint:holds mu
func (l *Log) rotate() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		l.broken = fmt.Errorf("close on rotate: %v", err)
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	seq := l.curSeq + 1
	f, err := l.fsys.OpenFile(l.segPath(seq), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		l.broken = fmt.Errorf("open segment %d: %v", seq, err)
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	l.cur = f
	l.curSeq = seq
	l.curSize = 0
	l.segs = append(l.segs, segInfo{seq: seq, name: l.segPath(seq)})
	l.stats.Rotations++
	l.stats.Segments = len(l.segs)
	l.mRotations.Inc()
	return nil
}

// Close fsyncs and closes the journal. A broken log closes without
// syncing (the sync already failed once; the file is closed so the
// process can exit cleanly).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	var err error
	if l.broken == nil {
		err = l.syncLocked()
	}
	if cerr := l.cur.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
