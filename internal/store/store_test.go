package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestObjectRoundTrip(t *testing.T) {
	s := open(t)
	data := []byte(`{"total":42}`)
	hash, err := s.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if hash != again {
		t.Fatalf("re-putting identical content changed the hash: %s vs %s", hash, again)
	}
	got, err := s.GetObject(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("GetObject = %q, want %q", got, data)
	}
	if _, err := s.GetObject("00" + hash[2:]); err == nil {
		t.Fatal("GetObject of an absent hash must fail")
	}
}

func TestReportIndex(t *testing.T) {
	s := open(t)
	digest := Digest(map[string]int{"flips": 100})
	if _, ok := s.ReportHash(digest); ok {
		t.Fatal("fresh store claims a report")
	}
	hash, err := s.PutReport(digest, []byte("report-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	data, etag, err := s.GetReport(digest)
	if err != nil {
		t.Fatal(err)
	}
	if etag != hash || string(data) != "report-bytes" {
		t.Fatalf("GetReport = (%q, %s), want (report-bytes, %s)", data, etag, hash)
	}
}

func TestDigestDeterministic(t *testing.T) {
	type spec struct {
		Flips int
		Seed  uint64
	}
	a := Digest(spec{Flips: 100, Seed: 7})
	b := Digest(spec{Flips: 100, Seed: 7})
	c := Digest(spec{Flips: 100, Seed: 8})
	if a != b {
		t.Fatal("identical values digest differently")
	}
	if a == c {
		t.Fatal("different values share a digest")
	}
}

func TestCampaignRecords(t *testing.T) {
	s := open(t)
	type rec struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := s.SaveCampaign("c1", rec{ID: "c1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCampaign("c1", rec{ID: "c1", State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCampaign("c2", rec{ID: "c2", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	err := s.LoadCampaigns(func(id string, data []byte) error {
		seen[id] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("loaded %d records, want 2", len(seen))
	}
	if !bytes.Contains([]byte(seen["c1"]), []byte(`"done"`)) {
		t.Fatalf("c1 record not replaced: %s", seen["c1"])
	}
}

func TestJournalAndEventsPaths(t *testing.T) {
	s := open(t)
	if s.HasJournal("c1") {
		t.Fatal("fresh store claims a journal")
	}
	if err := os.WriteFile(s.JournalPath("c1"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !s.HasJournal("c1") {
		t.Fatal("journal not found at JournalPath")
	}
	if s.EventsPath("c1") == s.JournalPath("c1") {
		t.Fatal("events and journal paths collide")
	}
}

// TestWriteAtomicLeavesNoTemp holds writeAtomic to its files: a successful
// write leaves the target and nothing else, and one whose rename fails (the
// target is a directory) leaves no temp file behind.
func TestWriteAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	names := func() []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	target := filepath.Join(dir, "record.json")
	if err := writeAtomic(target, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got := names(); !slices.Equal(got, []string{"record.json"}) {
		t.Fatalf("after a successful write the directory holds %v, want only the target", got)
	}
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(sub, "full"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(sub, []byte("{}")); err == nil {
		t.Fatal("a rename onto a non-empty directory succeeded")
	}
	if got := names(); !slices.Equal(got, []string{"record.json", "sub"}) {
		t.Fatalf("after a failed write the directory holds %v, want no temp file", got)
	}
}
