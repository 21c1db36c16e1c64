package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"sfi/internal/core"
	"sfi/internal/obs"
	"sfi/internal/stats"
)

// fuzzPaths are the four POST handlers and, last, fuzzExpire: the passing of
// every lease's TTL. A script line's first byte picks one.
var fuzzPaths = []string{"/v1/lease", "/v1/heartbeat", "/v1/complete", "/v1/fail", fuzzExpire}

const fuzzExpire = "expire"

// expireLeases sweeps the ledger as the next call or view would once every
// lease now granted has gone a TTL without a heartbeat.
func expireLeases(c *Coordinator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(time.Now().Add(c.cfg.LeaseTTL + time.Nanosecond))
}

// fuzzCoordConfig is a small journaling campaign over one unit's latches
// (a handful of strata, so a Neyman ledger can settle whole epochs and meet
// its stop rule within a short script).
func fuzzCoordConfig(neyman bool, minPerClass uint8, journal string) CoordConfig {
	spec := testSpec()
	spec.Flips = 24
	spec.Filter = FilterSpec{Kind: "unit", Arg: "FXU"}
	if neyman {
		spec.Alloc = core.AllocConfig{Mode: core.AllocNeyman, Epochs: 3}
	}
	if minPerClass > 0 {
		spec.Stop = core.StopConfig{TargetMargin: 0.999, MinPerClass: int(minPerClass), StopOnConverge: true}
	}
	return CoordConfig{Campaign: spec, ShardSize: 4, Journal: journal}
}

// fuzzPost sends one body to one handler, no socket involved.
func fuzzPost(c *Coordinator, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// fuzzSeedScript plays an honest worker against a coordinator by hand and
// returns the documents it sent as a script — the exchange of the loopback
// tests — followed by hostile variants of them: shard ids outside the
// ledger, a report for the wrong stratum, metrics counting more injections
// than the lease holds, numerics no field should take. With attach, each
// honest completion carries trace lines the lease did not ask for, as a
// worker older than the lease's attach_trace sends them.
func fuzzSeedScript(f *testing.F, neyman bool, minPerClass uint8, attach bool) []byte {
	c, err := NewCoordinator(fuzzCoordConfig(neyman, minPerClass, filepath.Join(f.TempDir(), "journal")))
	if err != nil {
		f.Fatal(err)
	}
	defer c.Close()
	var script [][]byte
	send := func(path int, doc any) *httptest.ResponseRecorder {
		body, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		script = append(script, append([]byte{byte(path)}, body...))
		return fuzzPost(c, fuzzPaths[path], body)
	}
	var l leaseResponse
	rec := send(0, leaseRequest{Worker: "w"})
	for rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
			f.Fatal(err)
		}
		size := uint64(l.Shard.Hi - l.Shard.Lo)
		send(1, heartbeatRequest{Worker: "w", Shard: l.Shard.ID, Metrics: &obs.Snapshot{Injections: size - 1}})
		send(1, heartbeatRequest{Worker: "w", Shard: l.Shard.ID, Metrics: &obs.Snapshot{Injections: size + 1}})
		wrong := fakeWireFor(l.Shard)
		wrong.ByStratum = map[string]map[string]int{"LSU/FUNC": wrong.Counts}
		send(2, completeRequest{Worker: "w", Shard: l.Shard.ID, Report: wrong})
		wrong = fakeWireFor(l.Shard)
		wrong.Metrics = &obs.Snapshot{Injections: size + 1}
		send(2, completeRequest{Worker: "w", Shard: l.Shard.ID, Report: wrong})
		done := completeRequest{Worker: "w", Shard: l.Shard.ID, Report: fakeWireFor(l.Shard)}
		if attach {
			done.Trace = []json.RawMessage{
				json.RawMessage(fmt.Sprintf(`{"seq":%d,"bit":42,"outcome":"vanished"}`, l.Shard.Lo)),
				json.RawMessage(fmt.Sprintf(`{"seq":%d,"bit":77,"outcome":"corrected"}`, l.Shard.Lo+1)),
			}
		}
		send(2, done)
		rec = send(0, leaseRequest{Worker: "w"})
	}
	send(3, failRequest{Worker: "w", Shard: 0, Error: "boom"})
	send(1, heartbeatRequest{Worker: "w", Shard: -1})
	send(2, completeRequest{Worker: "w", Shard: 1 << 40, Report: fakeWire(4)})
	script = append(script,
		[]byte("\x02"+`{"worker":"w","shard":1,"report":{"total":-4,"counts":{"vanished":-4}}}`),
		[]byte("\x01"+`{"worker":"w","shard":2,"ttl_ms":-1,"delta":{"injections":18446744073709551615}}`),
		[]byte("\x01"+`{"worker":"w","shard":2,"metrics":{"injections":1000000000000000000}}`),
		[]byte("\x03"+`{"worker":"w","shard":1e99,"error":"x"}`),
		[]byte("\x00"+`{"worker":"a"} trailing junk`))
	return bytes.Join(script, []byte("\n"))
}

// fuzzRunScript plays workers that lease runs against a coordinator by hand
// and returns the documents they sent as a script: a fail in the middle of a
// run; a run heartbeated shard by shard and delivered in one completion, with
// trace lines on every shard, and then delivered again; a run whose lease
// expires and one of whose shards is re-granted to another worker and
// completed there before the run is delivered whole; and runs to the
// campaign's end.
func fuzzRunScript(f *testing.F, neyman bool, minPerClass uint8) []byte {
	c, err := NewCoordinator(fuzzCoordConfig(neyman, minPerClass, filepath.Join(f.TempDir(), "journal")))
	if err != nil {
		f.Fatal(err)
	}
	defer c.Close()
	var script [][]byte
	send := func(path int, doc any) *httptest.ResponseRecorder {
		body, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		script = append(script, append([]byte{byte(path)}, body...))
		return fuzzPost(c, fuzzPaths[path], body)
	}
	lease := func(worker string, run bool) []ShardLease {
		rec := send(0, leaseRequest{Worker: worker, Run: run})
		if rec.Code != http.StatusOK {
			return nil
		}
		var l leaseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
			f.Fatal(err)
		}
		var shards []ShardLease
		for _, g := range l.run() {
			shards = append(shards, g.ShardLease)
		}
		return shards
	}

	if run := lease("w", true); len(run) > 1 {
		send(3, failRequest{Worker: "w", Shard: run[1].ID, Error: "boom"})
	}
	if run := lease("w", true); run != nil {
		for _, l := range run {
			send(1, heartbeatRequest{Worker: "w", Shard: l.ID, Metrics: &obs.Snapshot{Injections: uint64(l.Hi - l.Lo - 1)}})
		}
		done := runCompletion("w", run)
		done.Trace = []json.RawMessage{json.RawMessage(`{"seq":0,"bit":42,"outcome":"vanished"}`)}
		for i := range done.Rest {
			done.Rest[i].Trace = []json.RawMessage{json.RawMessage(fmt.Sprintf(`{"seq":%d,"bit":7,"outcome":"vanished"}`, i))}
		}
		send(2, done)
		send(2, done)
	}
	if run := lease("w", true); run != nil {
		script = append(script, []byte{4})
		expireLeases(c)
		for {
			l := lease("v", false)
			if l == nil {
				break
			}
			send(2, runCompletion("v", l))
			if slices.Contains(run, l[0]) {
				break
			}
		}
		send(2, runCompletion("w", run))
	}
	for run := lease("w", true); run != nil; run = lease("w", true) {
		send(2, runCompletion("w", run))
	}
	return bytes.Join(script, []byte("\n"))
}

// ledger is what a coordinator's shard ledger holds that outlives the
// process: the shards planned and done, the sealed counts, the stop
// decision, and the evaluation every view shows.
type ledger struct {
	Shards       int
	Done         []int
	Sealed       core.Report
	StoppedEarly bool
	Stop, Shown  *stats.Convergence
}

func ledgerOf(c *Coordinator) ledger {
	shown := c.Status().Convergence
	c.mu.Lock()
	defer c.mu.Unlock()
	l := ledger{Shards: len(c.shards), Sealed: *c.sealed, StoppedEarly: c.stopEval != nil, Stop: c.stopEval, Shown: shown}
	for _, s := range c.shards {
		if s.status == shardDone {
			l.Done = append(l.Done, s.ID)
		}
	}
	return l
}

// FuzzCoordinatorRequests drives arbitrary request bodies through the four
// POST handlers of a journaling coordinator, between which every lease may
// expire. Whatever arrives: no panic,
// only the protocol's statuses, never more shards done than planned nor
// more injections in the fleet view than the campaign has flips; a keyless
// stop falls at the smallest converged prefix of the shards it accepted —
// and a coordinator restarted over the journal this one wrote reaches the
// same ledger and shows the same evaluation, so nothing a request made the
// coordinator decide went unrecorded and nothing it refused was written.
// The coordinator records no shard trace, so the trace lines a completion
// carries change nothing: a twin sent each completion without them answers
// every request alike and reaches the same ledger and report.
func FuzzCoordinatorRequests(f *testing.F) {
	for _, neyman := range []bool{false, true} {
		for _, minPerClass := range []uint8{0, 3, 8} {
			f.Add(neyman, minPerClass, fuzzSeedScript(f, neyman, minPerClass, false))
		}
	}
	// Before any request: a replay must restore the first epoch's
	// evaluation from the allocation line alone.
	for _, minPerClass := range []uint8{0, 3} {
		f.Add(true, minPerClass, []byte{})
	}
	// Completions carrying the trace lines an older worker attaches.
	for _, neyman := range []bool{false, true} {
		for _, minPerClass := range []uint8{0, 3} {
			f.Add(neyman, minPerClass, fuzzSeedScript(f, neyman, minPerClass, true))
		}
	}
	// Workers that lease runs.
	for _, neyman := range []bool{false, true} {
		for _, minPerClass := range []uint8{0, 3} {
			f.Add(neyman, minPerClass, fuzzRunScript(f, neyman, minPerClass))
		}
	}
	f.Fuzz(func(t *testing.T, neyman bool, minPerClass uint8, script []byte) {
		cfg := fuzzCoordConfig(neyman, minPerClass, filepath.Join(t.TempDir(), "journal"))
		c, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewCoordinator(fuzzCoordConfig(neyman, minPerClass, filepath.Join(t.TempDir(), "twin")))
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()
		for _, line := range bytes.Split(script, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			path := fuzzPaths[int(line[0])%len(fuzzPaths)]
			if path == fuzzExpire {
				expireLeases(c)
				expireLeases(twin)
				continue
			}
			code := fuzzPost(c, path, line[1:]).Code
			switch code {
			case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusConflict, http.StatusGone:
			default:
				t.Errorf("POST %s %q: status %d", path, line[1:], code)
			}
			if bare := postWithoutTrace(twin, path, line[1:]); bare != code {
				t.Errorf("POST %s %q: status %d, and %d without its trace lines", path, line[1:], code, bare)
			}
		}
		live, fleet := ledgerOf(c), c.FleetSnapshot().Injections
		if bare := ledgerOf(twin); !reflect.DeepEqual(live, bare) {
			t.Errorf("trace lines moved the ledger:\n   with %+v\nwithout %+v", live, bare)
		}
		if rep, bare := finalReport(c), finalReport(twin); !reflect.DeepEqual(rep, bare) {
			t.Errorf("trace lines moved the report:\n   with %+v\nwithout %+v", rep, bare)
		}
		c.Close()
		if len(live.Done) > live.Shards || live.Sealed.Total > cfg.Campaign.Flips || fleet > uint64(cfg.Campaign.Flips) {
			t.Fatalf("ledger overran its plan: %+v, %d injections in the fleet view", live, fleet)
		}
		if (live.Shown == nil) != (minPerClass == 0) {
			t.Fatalf("a campaign with min-per-class %d shows evaluation %+v", minPerClass, live.Shown)
		}
		if !neyman && live.StoppedEarly {
			checkPrefixStop(t, c, cfg.Campaign.Stop.Rule())
		}

		// Grants, requeues, leases and a failure (attempts exhausted) die
		// with the process; the ledger does not.
		c2, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatalf("the journal this coordinator wrote does not replay: %v", err)
		}
		defer c2.Close()
		if replayed := ledgerOf(c2); !reflect.DeepEqual(live, replayed) {
			t.Errorf("replayed ledger differs:\n  live %+v\nreplay %+v", live, replayed)
		}
	})
}

// postWithoutTrace sends a request as fuzzPost does, except that a
// completion is decoded as the handler decodes it and handed to the
// coordinator without the trace lines of any of its shards.
func postWithoutTrace(c *Coordinator, path string, body []byte) int {
	var req completeRequest
	if path != "/v1/complete" || json.Unmarshal(body, &req) != nil {
		return fuzzPost(c, path, body).Code
	}
	req.Trace = nil
	for i := range req.Rest {
		req.Rest[i].Trace = nil
	}
	status, _ := c.complete(req)
	return status
}

// finalReport is what Wait returns once the campaign is over (its report or
// its error), and nil before.
func finalReport(c *Coordinator) any {
	select {
	case <-c.finished:
	default:
		return nil
	}
	rep, err := c.Wait(context.Background())
	if err != nil {
		return err.Error()
	}
	return rep
}

// checkPrefixStop recomputes where a stopped keyless campaign's prefix
// converged, from the reports the coordinator accepted: the smallest prefix of
// shards whose pooled counts converge the rule, short of the last shard. Wait's
// report must cover exactly that prefix.
func checkPrefixStop(t *testing.T, c *Coordinator, rule stats.StopRule) {
	t.Helper()
	c.mu.Lock()
	prefix, converged, k := core.Report{Counts: make(map[core.Outcome]int)}, false, 0
	for ; k < len(c.shards) && c.shards[k].report != nil && !converged; k++ {
		prefix.Merge(&core.Report{Total: c.shards[k].report.Total, Counts: c.shards[k].report.Counts})
		converged = prefix.PooledConvergence(rule).Converged
	}
	shards := len(c.shards)
	c.mu.Unlock()
	if !converged || k == shards {
		t.Fatalf("stopped, but no prefix of the accepted shards short of the last converges (%d of %d folded)", k, shards)
	}
	rep, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != prefix.Total || !maps.Equal(rep.Counts, prefix.Counts) {
		t.Fatalf("stopped at the %d-shard prefix (%d, %v), but Wait's report covers (%d, %v)",
			k, prefix.Total, prefix.Counts, rep.Total, rep.Counts)
	}
}

// readWireReport reads a canonical wire report with the codec's reader;
// ok is false for any other document.
func readWireReport(data []byte) (*WireReport, bool) {
	r := reader{b: data, ok: true}
	w := r.wireReport()
	return w, r.done()
}

// FuzzWireReport decodes arbitrary bytes as a shard's wire report — what a
// completion body, a journal line and a stored report document carry — and
// converts it to a core.Report. Whatever arrives, the decode returns an
// error, or its report is refused by covers for every lease it could answer
// (a keyless one, and one per stratum it names), or it is a report a
// coordinator seals: then its per-unit and per-latch-type marginals count
// every injection once, as the cross does. Every decoded report re-encodes
// to a wire report that decodes to an equal one. The shard-report codec is
// held to encoding/json on the same bytes: where its reader accepts them it
// reads what encoding/json reads, and its writer writes every decoded report
// as json.Marshal does; the same holds of the bytes read as a completion. The
// seeds add each journal report as the codec writes it today, which its
// reader accepts, and a traced worker's completion.
func FuzzWireReport(f *testing.F) {
	journals, err := filepath.Glob(filepath.Join("testdata", "parent-*.journal"))
	if err != nil || len(journals) != 4 {
		f.Fatalf("parent journals %v (%v), want four", journals, err)
	}
	for _, path := range journals {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var e struct {
				Report json.RawMessage `json:"report"`
			}
			if json.Unmarshal(line, &e) == nil && e.Report != nil {
				f.Add([]byte(e.Report))
				// The same report as the codec writes it today.
				var w WireReport
				if json.Unmarshal(e.Report, &w) == nil {
					if rep, err := w.Report(); err == nil {
						f.Add(appendWireReport(nil, EncodeReport(rep)))
					}
				}
			}
		}
	}
	// A completion with spans, as a traced worker sends it.
	done, err := encodeComplete(&completeRequest{Worker: "w", Shard: 1, Report: fakeWire(4),
		Spans: []obs.Span{{TraceID: "t", SpanID: "s", ParentID: "p", Name: "shard.run", Layer: "worker", DurNs: 9,
			Attrs: map[string]string{"lo": "0"}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(done)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodecComplete(t, data)
		var w WireReport
		err := json.Unmarshal(data, &w)
		if fast, ok := readWireReport(data); ok && (err != nil || !reflect.DeepEqual(*fast, w)) {
			t.Fatalf("the codec read %s\nas %+v; encoding/json: %+v (%v)", data, *fast, w, err)
		}
		if err != nil {
			return
		}
		checkCodecWrites(t, &w)
		rep, err := w.Report()
		if err != nil {
			return
		}
		leases := []ShardLease{{Hi: rep.Total}}
		for key := range rep.ByStratum {
			leases = append(leases, ShardLease{Hi: rep.Total, Stratum: key})
		}
		for _, l := range leases {
			if (&shard{ShardLease: l}).covers(rep) != nil {
				continue
			}
			if byUnit, byType := rep.Marginals(); tally(byUnit) != rep.Total || tally(byType) != rep.Total {
				t.Fatalf("lease %+v seals a report of %d injections whose marginals count %d by unit, %d by type",
					l, rep.Total, tally(byUnit), tally(byType))
			}
		}
		first, err := json.Marshal(EncodeReport(rep))
		if err != nil {
			t.Fatal(err)
		}
		var again WireReport
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("re-encoded report does not decode: %v\n%s", err, first)
		}
		back, err := again.Report()
		if err != nil {
			t.Fatalf("re-encoded report is refused: %v\n%s", err, first)
		}
		second, err := json.Marshal(EncodeReport(back))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != back.Total || rep.Workers != back.Workers || !reflect.DeepEqual(rep.Counts, back.Counts) ||
			!reflect.DeepEqual(rep.ByStratum, back.ByStratum) || !bytes.Equal(first, second) {
			t.Fatalf("wire round trip changed the report:\n%s\n%s", first, second)
		}
	})
}

// checkCodecComplete fails t unless the codec, read as a completion, reads
// data as encoding/json does wherever its reader accepts it, and writes any
// completion encoding/json decodes from data as json.Marshal does.
func checkCodecComplete(t *testing.T, data []byte) {
	t.Helper()
	checkRead(t, data, readComplete, decodeComplete)
	var req completeRequest
	if json.Unmarshal(data, &req) != nil {
		return
	}
	got, err := encodeComplete(&req)
	want, werr := json.Marshal(req)
	if err != nil || werr != nil || !bytes.Equal(got, want) {
		t.Fatalf("the codec wrote (%v)\n%s\nencoding/json (%v)\n%s", err, got, werr, want)
	}
}

// checkCodecWrites fails t unless the codec writes w, on its own, in a
// completion and on a journal line, exactly as json.Marshal does.
func checkCodecWrites(t *testing.T, w *WireReport) {
	t.Helper()
	same := func(got []byte, err error, doc any) {
		want, werr := json.Marshal(doc)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("the codec wrote (%v)\n%s\nencoding/json (%v)\n%s", err, got, werr, want)
		}
	}
	same(appendWireReport(nil, w), nil, w)
	done := completeRequest{Worker: "w", Shard: 1, Report: w, Rest: []shardReport{{Shard: 2, Report: w}}}
	got, err := encodeComplete(&done)
	same(got, err, done)
	got, err = appendJournalLine(nil, journalEntry{Shard: 1, Report: w})
	same(got, err, journalEntry{Shard: 1, Report: w})
}

// FuzzJournal replays arbitrary bytes as the lines after a parent journal's
// header (testdata/parent-*.journal, the campaign each was written for),
// seeded with each journal's lines whole, torn mid-line and with a line
// corrupted ahead of intact ones. Whatever follows the header, NewCoordinator
// does not panic: it refuses the journal with an error or resumes, and a
// second coordinator over the file the first one left reaches the same
// ledger and shows the same evaluation.
func FuzzJournal(f *testing.F) {
	journals := parentJournals()
	headers := make([][]byte, len(journals))
	for i, pj := range journals {
		data, err := os.ReadFile(filepath.Join("testdata", "parent-"+pj.name+".journal"))
		if err != nil {
			f.Fatal(err)
		}
		header, body, _ := bytes.Cut(data, []byte("\n"))
		headers[i] = append(header, '\n')
		lines := bytes.SplitAfter(body, []byte("\n"))
		mid := len(lines) / 2
		f.Add(uint8(i), body)
		f.Add(uint8(i), bytes.Join(lines[:mid], nil))
		f.Add(uint8(i), append(bytes.Join(lines[:mid], nil), lines[mid][:len(lines[mid])/2]...))
		corrupt := bytes.Clone(body)
		corrupt[len(bytes.Join(lines[:mid], nil))+1] = '#'
		f.Add(uint8(i), corrupt)
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		i := int(which) % len(journals)
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, append(bytes.Clone(headers[i]), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := CoordConfig{Campaign: journals[i].spec, ShardSize: journals[i].shardSize, Journal: path}
		c, err := NewCoordinator(cfg)
		if err != nil {
			return
		}
		live := ledgerOf(c)
		c.Close()
		c2, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatalf("resumed once, but not over the journal it left: %v", err)
		}
		defer c2.Close()
		if replayed := ledgerOf(c2); !reflect.DeepEqual(live, replayed) {
			t.Errorf("replayed ledger differs:\n  first %+v\n second %+v", live, replayed)
		}
	})
}
