package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"reflect"
	"strings"

	"sfi/internal/core"
	"sfi/internal/stats"
)

// The campaign journal is a JSONL file: a header line binding it to one
// campaign plan, then one line per completed shard, plus — for adaptive
// campaigns — one stop-decision line recording the sealed-counts
// convergence evaluation the coordinator stopped on, and — for stratified
// campaigns — one allocation line per epoch recording the budget split and
// the exact shard leases it planned. Lines are appended and fsync'd as the
// decisions happen (a completed run's shard lines together, under one
// fsync), so a coordinator killed at any point can be restarted
// over the same journal and resume with every durably completed shard
// already marked done, every recorded allocation re-applied verbatim (in
// order — an allocation is a function of the sealed counts before it), and
// the stop decision, if one was reached, honored verbatim. A torn final
// line (crash mid-append) is cut off on replay — that work simply reruns —
// while damage followed by intact records refuses to open.

type journalHeader struct {
	V    int    `json:"v"`
	Seed uint64 `json:"seed"`
	// Backend is the resolved engine backend name: shard reports from
	// different machine models must never be merged, so a journal written
	// by one backend rejects resumption under another.
	Backend   string     `json:"backend,omitempty"`
	Flips     int        `json:"flips"`
	ShardSize int        `json:"shard_size"`
	Filter    FilterSpec `json:"filter"`
	// Stop binds the journal to one stopping rule: replaying shards
	// recorded under one rule while evaluating another would let the same
	// journal yield different stop decisions.
	Stop core.StopConfig `json:"stop,omitempty"`
	// Alloc binds the journal to one allocation policy, for the same
	// reason. The zero value (uniform) keeps old journals resumable:
	// their headers decode to the zero value and still compare equal.
	Alloc core.AllocConfig `json:"alloc,omitzero"`
	// Model binds what the fields above leave out of the campaign's results:
	// the fault model and machine sizing (engine.ImageDigest of the runner
	// config) and whether shard reports keep per-injection results. A toggle
	// journal resumed by a sticky campaign would otherwise hand back the
	// toggle report as its own. Journals written before the field existed
	// carry none and resume as they always did, bound by the fields above.
	Model string `json:"model,omitempty"`
}

// differs names the header fields, by their journal names, on which a
// journal's header and the restarted campaign's disagree.
func (h journalHeader) differs(want journalHeader) []string {
	var names []string
	got, exp := reflect.ValueOf(h), reflect.ValueOf(want)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Interface() != exp.Field(i).Interface() {
			name, _, _ := strings.Cut(got.Type().Field(i).Tag.Get("json"), ",")
			names = append(names, name)
		}
	}
	return names
}

// allocRecord is one allocation-epoch decision: the budget the Neyman
// allocator split, the per-stratum shares it chose, and the exact shard
// leases the epoch was planned into. Replay applies the leases verbatim —
// the record makes the re-allocation durable before any of its shards can
// complete, so a restarted coordinator extends the same per-stratum
// sequences instead of re-deriving them against a half-settled ledger.
type allocRecord struct {
	core.Epoch
	Shards []ShardLease `json:"shards"`
}

// journalEntry is one post-header line, discriminated by Shard: >= 0 is a
// completed shard's report, -1 the convergence stop decision, -2 an
// allocation epoch.
type journalEntry struct {
	Shard  int                `json:"shard"`
	Report *WireReport        `json:"report,omitempty"`
	Stop   *stats.Convergence `json:"stop,omitempty"`
	Alloc  *allocRecord       `json:"alloc,omitempty"`
}

const (
	journalShardStop  = -1
	journalShardAlloc = -2
)

// journal is the append side of a campaign journal.
type journal struct {
	f     *os.File
	syncs int // fsyncs of the file so far, the header's included
}

// openJournal opens (or creates) the journal at path for the campaign
// described by hdr, returning the journal to append to and the recovered
// lines in file order. An existing journal whose header does not match hdr
// is rejected: resuming a different campaign over it would merge unrelated
// shards.
func openJournal(path string, hdr journalHeader, log *slog.Logger) (*journal, []journalEntry, error) {
	var entries []journalEntry
	// good is the offset just past the last complete, parseable line: what
	// replay recovered, and where the next append must start.
	good := 0
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) || (err == nil && len(data) == 0):
		// Fresh journal.
	case err != nil:
		return nil, nil, fmt.Errorf("dist: read journal: %w", err)
	default:
		lines := bytes.SplitAfter(data, []byte("\n"))
		var got journalHeader
		if err := json.Unmarshal(lines[0], &got); err != nil {
			return nil, nil, fmt.Errorf("dist: journal %s: bad header: %w", path, err)
		}
		want := hdr
		if got.Model == "" {
			want.Model = ""
		}
		if diff := got.differs(want); len(diff) > 0 {
			return nil, nil, fmt.Errorf("dist: journal %s belongs to a different campaign: its header differs in %s",
				path, strings.Join(diff, ", "))
		}
		// A line is whole only once its newline is on disk: a crash
		// mid-append leaves a prefix, which may even parse.
		nl := []byte("\n")
		off, torn := len(lines[0]), 0 // torn: number of the first damaged line, 0 = none
		if bytes.HasSuffix(lines[0], nl) {
			good = off
		} else {
			torn = 1
		}
		for i, line := range lines[1:] {
			off += len(line)
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var e journalEntry
			if !bytes.HasSuffix(line, nl) || json.Unmarshal(line, &e) != nil {
				if torn == 0 {
					torn = i + 2
				}
				continue
			}
			if torn != 0 {
				// Damage with intact records after it is not a torn tail;
				// dropping those records would silently change the report.
				return nil, nil, fmt.Errorf("dist: journal %s: line %d is corrupt but line %d after it is intact; refusing to resume",
					path, torn, i+2)
			}
			entries = append(entries, e)
			good = off
		}
		if torn != 0 {
			// Torn tail from a crash mid-append: rerun that work.
			log.Warn("journal torn tail dropped", "path", path, "line", torn)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: open journal: %w", err)
	}
	// Cut the file back to the last whole line before anything is appended:
	// a record glued onto a torn fragment would be unreadable on the next
	// restart, and everything after it with it.
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("dist: truncate journal torn tail: %w", err)
		}
	}
	j := &journal{f: f}
	if good == 0 {
		if err := j.append(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, entries, nil
}

// append writes one line per value, in order, and makes them durable with
// one sync.
func (j *journal) append(vs ...any) error {
	var buf []byte
	for _, v := range vs {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf = append(append(buf, line...), '\n')
	}
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	j.syncs++
	return j.f.Sync()
}
