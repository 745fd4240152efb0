package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type testRecord struct {
	Entry
	Note string `json:"note,omitempty"`
}

// TestLogReplayTruncatesTornTail: lines that do not parse or lack an
// event or ID are skipped and counted but left in place, a torn final
// line is counted and truncated away, the next append starts on a clean
// line with the next sequence number, and Entry's keys lead the line.
func TestLogReplayTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	kept := `{"seq":7,"time":"2026-08-01T00:00:00Z","event":"done","id":"a","note":"x"}` + "\n" +
		"not json\n" +
		`{"seq":8,"event":"done"}` + "\n" +
		"\n"
	if err := os.WriteFile(path, []byte(kept+`{"seq":9,"ev`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, skipped, err := OpenLog[testRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 7 || recs[0].ID != "a" || recs[0].Note != "x" || skipped != 3 {
		t.Fatalf("replay: %+v, %d skipped", recs, skipped)
	}
	if err := l.Append(&testRecord{Entry: Entry{Event: "submitted", ID: "b"}, Note: "y"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	added, ok := strings.CutPrefix(string(data), kept)
	if !ok || !strings.HasPrefix(added, `{"seq":8,"time":"`) || !strings.HasSuffix(added, `"event":"submitted","id":"b","note":"y"}`+"\n") {
		t.Fatalf("log after append:\n%s", data)
	}

	l, recs, skipped, err = OpenLog[testRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 2 || recs[1].Seq != 8 || skipped != 2 {
		t.Fatalf("reopen: %+v, %d skipped", recs, skipped)
	}
}

func TestLogAppendAfterClose(t *testing.T) {
	l, _, _, err := OpenLog[testRecord](filepath.Join(t.TempDir(), "test.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(&testRecord{Entry: Entry{Event: "done", ID: "a"}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}
