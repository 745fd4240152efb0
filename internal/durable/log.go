// Package durable holds the crash-safety mechanisms every persisted
// format in this module shares: an fsynced JSON-lines event log, the
// atomic install of a whole file, the startup sweep of files no log
// record names, and the checksummed section frame the binary formats
// are wrapped in. Callers keep what gives their formats meaning — event
// names, record fields, section contents and version rules — so a fix
// to torn-tail handling or to the checks on hostile lengths lands here
// once.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrClosed reports an append against a closed log — the expected
// outcome when a submission races shutdown, filtered with errors.Is
// rather than message matching.
var ErrClosed = errors.New("durable: log is closed")

// Entry is the part of a log record the log itself owns: the sequence
// number and time stamped on append, and the event and ID that every
// record must carry (a line missing either is skipped on open). Record
// types embed it as their first field, so its keys lead every line.
type Entry struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Event string    `json:"event"`
	ID    string    `json:"id"`
}

func (e *Entry) entry() *Entry { return e }

// Record is implemented by a pointer to any struct that embeds Entry.
type Record interface{ entry() *Entry }

// Log is the append side of an append-only JSON-lines file. Appends are
// serialized by its own mutex and each is fsynced before it returns: an
// appended record survives a crash. off tracks the durable end of the
// file so a failed or short write is truncated away instead of leaving a
// partial line the next append would glue onto.
type Log struct {
	name   string // file base name, for error messages
	mu     sync.Mutex
	f      *os.File
	off    int64
	seq    uint64
	closed bool
}

// OpenLog opens (creating if needed) the log at path and returns the
// records already in it, decoded into R, with the number of lines it
// skipped. A newline-terminated line that does not parse, or lacks an
// event or ID, is skipped and counted. An unterminated final line — a
// crash mid-append, so never acknowledged — is counted and truncated
// away, so the next append starts on a clean line. Sequence numbers
// resume past the largest one read.
func OpenLog[R any, P interface {
	*R
	Record
}](path string) (*Log, []R, int, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*Log, []R, int, error) {
		f.Close()
		return nil, nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fail(fmt.Errorf("durable: reading %s: %w", path, err))
	}
	var records []R
	skipped := 0
	maxSeq := uint64(0)
	valid := int64(0) // byte offset just past the last complete line
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			skipped++ // torn tail; truncated below
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		valid += int64(nl) + 1
		if len(line) == 0 {
			continue
		}
		var rec R
		e := P(&rec).entry()
		if err := json.Unmarshal(line, &rec); err != nil || e.Event == "" || e.ID == "" {
			skipped++
			continue
		}
		maxSeq = max(maxSeq, e.Seq)
		records = append(records, rec)
	}
	if err := f.Truncate(valid); err != nil {
		return fail(fmt.Errorf("durable: truncating torn tail of %s: %w", path, err))
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fail(err)
	}
	return &Log{name: filepath.Base(path), f: f, off: valid, seq: maxSeq}, records, skipped, nil
}

// Append stamps rec with the next sequence number and the current time,
// writes it as one line and fsyncs it. A failed write or sync is rolled
// back to the last durable boundary; if even that fails, the next open's
// torn-tail handling still confines the damage to this unacknowledged
// record.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.seq++
	e := rec.entry()
	e.Seq, e.Time = l.seq, time.Now().UTC()
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := l.f.Write(line); err != nil {
		l.rollback()
		return fmt.Errorf("durable: appending to %s: %w", l.name, err)
	}
	if err := l.f.Sync(); err != nil {
		l.rollback()
		return fmt.Errorf("durable: syncing %s: %w", l.name, err)
	}
	l.off += int64(len(line))
	return nil
}

func (l *Log) rollback() {
	_ = l.f.Truncate(l.off)
	_, _ = l.f.Seek(l.off, io.SeekStart)
}

// Close fsyncs and closes the log. Later appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
