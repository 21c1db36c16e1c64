package dist

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"sfi/internal/core"
	"sfi/internal/latch"
	"sfi/internal/obs"
)

// The shard-report codec: what every completion and every journal shard line
// costs to write and to read, without reflection. The writer produces exactly
// json.Marshal's bytes, so the wire and the journal are what they were and
// old and new peers interoperate. The reader accepts only the canonical
// subset of JSON that the writer emits — keys in declaration order, each
// once, map keys in sorted order, plain integers, strings of printable ASCII
// without escapes, no whitespace, no null, no trace lines — and answers "not
// canonical" for anything else, which its callers then decode with
// encoding/json. So encoding/json stays the one judge of what a document is
// and means; the reader only reproduces its answer faster where the answer
// is plain.

// encodeComplete is json.Marshal(req). Completions carrying trace lines go
// through encoding/json itself.
func encodeComplete(req *completeRequest) ([]byte, error) {
	if req.Trace != nil || slices.ContainsFunc(req.Rest, func(sr shardReport) bool { return sr.Trace != nil }) {
		return json.Marshal(req)
	}
	b := append(appendString(append(make([]byte, 0, 4096), `{"worker":`...), req.Worker), `,"shard":`...)
	b = appendWireReport(append(strconv.AppendInt(b, int64(req.Shard), 10), `,"report":`...), req.Report)
	if len(req.Rest) > 0 {
		b = appendArray(append(b, `,"rest":`...), req.Rest, func(b []byte, sr *shardReport) []byte {
			b = strconv.AppendInt(append(b, `{"shard":`...), int64(sr.Shard), 10)
			return append(appendWireReport(append(b, `,"report":`...), sr.Report), '}')
		})
	}
	if len(req.Spans) > 0 {
		b = appendArray(append(b, `,"spans":`...), req.Spans, appendSpan)
	}
	return append(b, '}'), nil
}

// appendJournalLine appends json.Marshal(v) for a journal line to b; a shard
// line's report is written by the codec.
func appendJournalLine(b []byte, v any) ([]byte, error) {
	e, ok := v.(journalEntry)
	if !ok || e.Report == nil || e.Stop != nil || e.Alloc != nil {
		line, err := json.Marshal(v)
		return append(b, line...), err
	}
	b = strconv.AppendInt(append(b, `{"shard":`...), int64(e.Shard), 10)
	return append(appendWireReport(append(b, `,"report":`...), e.Report), '}'), nil
}

func appendWireReport(b []byte, w *WireReport) []byte {
	if w == nil {
		return append(b, "null"...)
	}
	b = strconv.AppendInt(append(b, `{"total":`...), int64(w.Total), 10)
	if w.Workers != 0 {
		b = strconv.AppendInt(append(b, `,"workers":`...), int64(w.Workers), 10)
	}
	b = appendMap(append(b, `,"counts":`...), w.Counts, appendInt)
	if len(w.ByStratum) > 0 {
		b = appendMap(append(b, `,"by_stratum":`...), w.ByStratum, func(b []byte, row map[string]int) []byte {
			return appendMap(b, row, appendInt)
		})
	}
	if len(w.Results) > 0 {
		b = appendArray(append(b, `,"results":`...), w.Results, appendResult)
	}
	if w.Metrics != nil {
		b = appendSnapshot(append(b, `,"metrics":`...), w.Metrics)
	}
	return append(b, '}')
}

func appendResult(b []byte, r *core.Result) []byte {
	b = strconv.AppendInt(append(b, `{"Bit":`...), int64(r.Bit), 10)
	b = appendString(append(b, `,"Group":`...), r.Group)
	b = appendString(append(b, `,"Unit":`...), r.Unit)
	b = strconv.AppendInt(append(b, `,"LatchType":`...), int64(r.LatchType), 10)
	b = strconv.AppendInt(append(b, `,"Entry":`...), int64(r.Entry), 10)
	b = strconv.AppendInt(append(b, `,"BitInEntry":`...), int64(r.BitInEntry), 10)
	b = strconv.AppendInt(append(b, `,"Outcome":`...), int64(r.Outcome), 10)
	b = strconv.AppendBool(append(b, `,"Detected":`...), r.Detected)
	b = appendString(append(b, `,"FirstChecker":`...), r.FirstChecker)
	b = strconv.AppendUint(append(b, `,"DetectLatency":`...), r.DetectLatency, 10)
	b = strconv.AppendUint(append(b, `,"Recoveries":`...), r.Recoveries, 10)
	b = strconv.AppendUint(append(b, `,"Cycles":`...), r.Cycles, 10)
	b = strconv.AppendInt(append(b, `,"TestEnds":`...), int64(r.TestEnds), 10)
	return append(b, '}')
}

func appendSpan(b []byte, sp *obs.Span) []byte {
	b = appendString(append(b, `{"trace_id":`...), sp.TraceID)
	b = appendString(append(b, `,"span_id":`...), sp.SpanID)
	if sp.ParentID != "" {
		b = appendString(append(b, `,"parent_id":`...), sp.ParentID)
	}
	b = appendString(append(b, `,"span":`...), sp.Name)
	b = appendString(append(b, `,"layer":`...), sp.Layer)
	b = strconv.AppendInt(append(b, `,"start_ns":`...), sp.StartNs, 10)
	b = strconv.AppendInt(append(b, `,"dur_ns":`...), sp.DurNs, 10)
	if len(sp.Attrs) > 0 {
		b = appendMap(append(b, `,"attrs":`...), sp.Attrs, appendString)
	}
	return append(b, '}')
}

func appendSnapshot(b []byte, s *obs.Snapshot) []byte {
	b = strconv.AppendUint(append(b, `{"injections":`...), s.Injections, 10)
	b = strconv.AppendUint(append(b, `,"restores":`...), s.Restores, 10)
	b = strconv.AppendUint(append(b, `,"cycles":`...), s.Cycles, 10)
	b = strconv.AppendUint(append(b, `,"stepped_cycles":`...), s.SteppedCycles, 10)
	b = strconv.AppendUint(append(b, `,"busy_ns":`...), s.BusyNs, 10)
	b = strconv.AppendUint(append(b, `,"batches":`...), s.Batches, 10)
	b = appendMap(append(b, `,"outcomes":`...), s.Outcomes, appendUint)
	row := func(b []byte, row map[string]uint64) []byte { return appendMap(b, row, appendUint) }
	if len(s.ByUnit) > 0 {
		b = appendMap(append(b, `,"by_unit":`...), s.ByUnit, row)
	}
	if len(s.ByType) > 0 {
		b = appendMap(append(b, `,"by_type":`...), s.ByType, row)
	}
	b = appendHist(append(b, `,"injection_ns":`...), &s.InjectionNs)
	b = appendHist(append(b, `,"restore_ns":`...), &s.RestoreNs)
	b = appendHist(append(b, `,"propagate_cycles":`...), &s.PropagateCycles)
	b = appendHist(append(b, `,"detect_cycles":`...), &s.DetectCycles)
	b = appendHist(append(b, `,"lane_occupancy":`...), &s.LaneOccupancy)
	return append(b, '}')
}

func appendHist(b []byte, h *obs.HistSnapshot) []byte {
	b = append(b, `{"buckets":[`...)
	for i, n := range h.Buckets {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, n, 10)
	}
	b = strconv.AppendUint(append(b, `],"count":`...), h.Count, 10)
	b = strconv.AppendUint(append(b, `,"sum":`...), h.Sum, 10)
	return append(b, '}')
}

func appendInt(b []byte, n int) []byte     { return strconv.AppendInt(b, int64(n), 10) }
func appendUint(b []byte, n uint64) []byte { return strconv.AppendUint(b, n, 10) }

// appendArray writes xs as a JSON array of elements written by elem.
func appendArray[T any](b []byte, xs []T, elem func([]byte, *T) []byte) []byte {
	b = append(b, '[')
	for i := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &xs[i])
	}
	return append(b, ']')
}

// appendMap writes m as encoding/json does: null when nil, else its keys in
// sorted order.
func appendMap[V any](b []byte, m map[string]V, value func([]byte, V) []byte) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = value(append(appendString(b, k), ':'), m[k])
	}
	return append(b, '}')
}

// appendString writes s as encoding/json does. A string of printable ASCII
// that json.Marshal leaves unescaped (it escapes <, > and & for HTML) is
// written as it is; any other goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) || s[i] == '<' || s[i] == '>' || s[i] == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// plain reports whether c stands for itself inside a JSON string.
func plain(c byte) bool { return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' }

// decodeComplete decodes a completion by the codec when the reader accepts
// it (see the top of this file), and with encoding/json otherwise.
func decodeComplete(data []byte, req *completeRequest) error {
	if got, ok := readComplete(data); ok {
		*req = got
		return nil
	}
	return json.Unmarshal(data, req)
}

// decodeJournalLine decodes one journal line, its newline cut off: a shard
// line the reader accepts by the codec, any other with encoding/json.
func decodeJournalLine(data []byte, e *journalEntry) error {
	if got, ok := readJournalLine(data); ok {
		*e = got
		return nil
	}
	return json.Unmarshal(data, e)
}

// readComplete reads a canonical completion; ok is false for any other
// document.
func readComplete(data []byte) (req completeRequest, ok bool) {
	r := reader{b: data, ok: true}
	r.open()
	req.Worker = r.strField("worker")
	req.Shard = r.intField("shard")
	r.need("report")
	req.Report = r.wireReport()
	if r.key("rest") {
		req.Rest = readArray(&r, func(r *reader) (sr shardReport) {
			r.open()
			sr.Shard = r.intField("shard")
			r.need("report")
			sr.Report = r.wireReport()
			r.close()
			return sr
		})
	}
	if r.key("spans") {
		req.Spans = readArray(&r, (*reader).span)
	}
	r.close()
	return req, r.done()
}

// readJournalLine reads a canonical journal shard line; ok is false for any
// other document.
func readJournalLine(data []byte) (e journalEntry, ok bool) {
	r := reader{b: data, ok: true}
	r.open()
	e.Shard = r.intField("shard")
	r.need("report")
	e.Report = r.wireReport()
	r.close()
	return e, r.done()
}

// reader is a cursor over one canonical document. The first mismatch clears
// ok, and every read after it is a no-op that returns a zero value.
type reader struct {
	b     []byte
	i     int
	ok    bool
	first bool // the object being read has no key yet
}

// done reports whether the whole document was read without a mismatch.
func (r *reader) done() bool { return r.ok && r.i == len(r.b) }

func (r *reader) fail() { r.ok = false }

// want consumes c, or fails.
func (r *reader) want(c byte) {
	if r.ok && r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return
	}
	r.fail()
}

// peek reports whether c is next.
func (r *reader) peek(c byte) bool { return r.ok && r.i < len(r.b) && r.b[r.i] == c }

func (r *reader) open() {
	r.want('{')
	r.first = true
}

func (r *reader) close() {
	r.want('}')
	r.first = false
}

// key consumes the object's next key if it is name, with the comma before
// it unless it is the object's first.
func (r *reader) key(name string) bool {
	if !r.ok {
		return false
	}
	j := r.i
	if !r.first {
		if j >= len(r.b) || r.b[j] != ',' {
			return false
		}
		j++
	}
	if j+len(name)+3 > len(r.b) || r.b[j] != '"' || string(r.b[j+1:j+1+len(name)]) != name ||
		r.b[j+1+len(name)] != '"' || r.b[j+2+len(name)] != ':' {
		return false
	}
	r.i, r.first = j+len(name)+3, false
	return true
}

// need consumes the object's next key, which must be name.
func (r *reader) need(name string) {
	if !r.key(name) {
		r.fail()
	}
}

// intField, uintField and strField read the object's next key, which must
// be name, and its value.
func (r *reader) intField(name string) int     { r.need(name); return r.integer() }
func (r *reader) uintField(name string) uint64 { r.need(name); return r.unsigned() }
func (r *reader) strField(name string) string  { r.need(name); return r.str() }

// str reads a string of plain bytes.
func (r *reader) str() string {
	r.want('"')
	if !r.ok {
		return ""
	}
	start := r.i
	for r.i < len(r.b) && plain(r.b[r.i]) {
		r.i++
	}
	s := string(r.b[start:r.i])
	r.want('"')
	return s
}

// unsigned reads an integer without a sign (or integer's magnitude): no
// leading zero, at most 18 digits (so it cannot overflow; a longer one is
// left to encoding/json).
func (r *reader) unsigned() uint64 {
	if !r.ok || r.i >= len(r.b) || r.b[r.i] < '0' || r.b[r.i] > '9' {
		r.fail()
		return 0
	}
	if r.b[r.i] == '0' {
		r.i++
		return 0
	}
	var n uint64
	start := r.i
	for r.i < len(r.b) && r.b[r.i] >= '0' && r.b[r.i] <= '9' {
		n = n*10 + uint64(r.b[r.i]-'0')
		r.i++
	}
	if r.i-start > 18 {
		r.fail()
		return 0
	}
	return n
}

func (r *reader) integer() int {
	neg := r.peek('-')
	if neg {
		r.i++
	}
	n := r.unsigned()
	if n > math.MaxInt || neg && n == 0 { // the writer writes no -0
		r.fail()
	}
	if neg {
		return -int(n)
	}
	return int(n)
}

func (r *reader) boolean() bool {
	switch {
	case !r.ok:
	case r.i+4 <= len(r.b) && string(r.b[r.i:r.i+4]) == "true":
		r.i += 4
		return true
	case r.i+5 <= len(r.b) && string(r.b[r.i:r.i+5]) == "false":
		r.i += 5
	default:
		r.fail()
	}
	return false
}

// readArray reads a JSON array of elements read by elem; [] is an empty,
// non-nil slice, as encoding/json makes it.
func readArray[T any](r *reader, elem func(*reader) T) []T {
	r.want('[')
	out := make([]T, 0)
	if r.peek(']') {
		r.i++
		return out
	}
	for r.ok {
		out = append(out, elem(r))
		if !r.peek(',') {
			break
		}
		r.i++
	}
	r.want(']')
	return out
}

// readMap reads a JSON object of values read by value, its keys in strictly
// increasing order (so none twice); {} is an empty, non-nil map.
func readMap[V any](r *reader, value func(*reader) V) map[string]V {
	r.want('{')
	out := make(map[string]V)
	if r.peek('}') {
		r.i++
		return out
	}
	prev := ""
	for r.ok {
		k := r.str()
		if len(out) > 0 && k <= prev {
			r.fail()
		}
		r.want(':')
		out[k], prev = value(r), k
		if !r.peek(',') {
			break
		}
		r.i++
	}
	r.want('}')
	return out
}

func (r *reader) wireReport() *WireReport {
	w := new(WireReport)
	r.open()
	w.Total = r.intField("total")
	if r.key("workers") {
		w.Workers = r.integer()
	}
	r.need("counts")
	w.Counts = readMap(r, (*reader).integer)
	if r.key("by_stratum") {
		w.ByStratum = readMap(r, func(r *reader) map[string]int { return readMap(r, (*reader).integer) })
	}
	if r.key("results") {
		w.Results = readArray(r, (*reader).result)
	}
	if r.key("metrics") {
		w.Metrics = r.snapshot()
	}
	r.close()
	return w
}

func (r *reader) result() (res core.Result) {
	r.open()
	res.Bit = r.intField("Bit")
	res.Group = r.strField("Group")
	res.Unit = r.strField("Unit")
	res.LatchType = latch.Type(r.intField("LatchType"))
	res.Entry = r.intField("Entry")
	res.BitInEntry = r.intField("BitInEntry")
	res.Outcome = core.Outcome(r.intField("Outcome"))
	r.need("Detected")
	res.Detected = r.boolean()
	res.FirstChecker = r.strField("FirstChecker")
	res.DetectLatency = r.uintField("DetectLatency")
	res.Recoveries = r.uintField("Recoveries")
	res.Cycles = r.uintField("Cycles")
	res.TestEnds = r.intField("TestEnds")
	r.close()
	return res
}

func (r *reader) span() (sp obs.Span) {
	r.open()
	sp.TraceID = r.strField("trace_id")
	sp.SpanID = r.strField("span_id")
	if r.key("parent_id") {
		sp.ParentID = r.str()
	}
	sp.Name = r.strField("span")
	sp.Layer = r.strField("layer")
	sp.StartNs = int64(r.intField("start_ns"))
	sp.DurNs = int64(r.intField("dur_ns"))
	if r.key("attrs") {
		sp.Attrs = readMap(r, (*reader).str)
	}
	r.close()
	return sp
}

func (r *reader) snapshot() *obs.Snapshot {
	s := new(obs.Snapshot)
	r.open()
	s.Injections = r.uintField("injections")
	s.Restores = r.uintField("restores")
	s.Cycles = r.uintField("cycles")
	s.SteppedCycles = r.uintField("stepped_cycles")
	s.BusyNs = r.uintField("busy_ns")
	s.Batches = r.uintField("batches")
	r.need("outcomes")
	s.Outcomes = readMap(r, (*reader).unsigned)
	row := func(r *reader) map[string]uint64 { return readMap(r, (*reader).unsigned) }
	if r.key("by_unit") {
		s.ByUnit = readMap(r, row)
	}
	if r.key("by_type") {
		s.ByType = readMap(r, row)
	}
	r.hist("injection_ns", &s.InjectionNs)
	r.hist("restore_ns", &s.RestoreNs)
	r.hist("propagate_cycles", &s.PropagateCycles)
	r.hist("detect_cycles", &s.DetectCycles)
	r.hist("lane_occupancy", &s.LaneOccupancy)
	r.close()
	return s
}

// hist reads the object's next key, which must be name, and its value: a
// histogram whose buckets array has exactly the snapshot's length
// (encoding/json would pad a shorter one and drop a longer one's tail; the
// writer never emits either).
func (r *reader) hist(name string, h *obs.HistSnapshot) {
	r.need(name)
	r.open()
	r.need("buckets")
	r.want('[')
	for i := range h.Buckets {
		if i > 0 {
			r.want(',')
		}
		h.Buckets[i] = r.unsigned()
	}
	r.want(']')
	h.Count = r.uintField("count")
	h.Sum = r.uintField("sum")
	r.close()
}
