package obs

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// TraceEvent records one injection's full lifecycle — the phases of the
// paper's flow (sample → checkpoint restore → flip → propagate → classify)
// with their latencies, cycle counts and the FIR bits observed at the end.
// Events serialize as one JSON object per line (JSONL).
type TraceEvent struct {
	Seq int64 `json:"seq"`   // sink-assigned event ordinal (0-based)
	TS  int64 `json:"ts_ns"` // injection start, unix nanoseconds

	// Sample phase: where the flip landed.
	Bit         int    `json:"bit"`
	Group       string `json:"group"`
	Unit        string `json:"unit"`
	LatchType   string `json:"latch_type"`
	Checkpoint  int    `json:"checkpoint"`   // phased-checkpoint index restored
	DelayCycles int    `json:"delay_cycles"` // sub-testcase phase jitter applied

	// Restore and propagate phase latencies. RestoreNs times the
	// ReloadPhase call; a backend that puts the restore itself off (p6lite)
	// bills it to the call that first needs the model, Inject or Run.
	RestoreNs   int64  `json:"restore_ns"`
	PropagateNs int64  `json:"propagate_ns"`
	Cycles      uint64 `json:"cycles"`   // cycles observed post-flip
	Stepped     uint64 `json:"stepped"`  // of those, the cycles the model was clocked through: 0 = replayed whole
	TestEnds    int    `json:"testends"` // AVP barriers passed

	// Classification.
	Outcome       string   `json:"outcome"`
	Detected      bool     `json:"detected"`
	FirstChecker  string   `json:"first_checker,omitempty"`
	DetectLatency uint64   `json:"detect_latency,omitempty"`
	Recoveries    uint64   `json:"recoveries"`
	FIR           []string `json:"fir,omitempty"` // checker names with FIR bits set
}

// TraceOptions bounds a sink so huge campaigns stay cheap.
type TraceOptions struct {
	// Sample records every Sample-th event (0 and 1 both mean every event).
	Sample int
	// Max stops recording after Max events (0 = unlimited).
	Max int
}

// TraceSink serializes injection trace events as JSONL to a writer. Record
// is safe for concurrent use from campaign workers; sampled-out and
// over-budget events are counted, not written. The zero bound (default)
// records everything.
type TraceSink struct {
	opts TraceOptions

	seq      atomic.Int64 // events offered
	recorded atomic.Int64 // events written
	dropped  atomic.Int64 // events sampled out or over budget

	mu  sync.Mutex
	w   io.Writer
	err error

	buf  *bufio.Writer // OpenTraceFile's: the sink owns the buffer and file
	file *os.File
}

// NewTraceSink wraps a writer in a sink. The sink does not buffer or close
// the writer; a trace file is OpenTraceFile's.
func NewTraceSink(w io.Writer, opts TraceOptions) *TraceSink {
	return &TraceSink{w: w, opts: opts}
}

// OpenTraceFile returns a sink that owns the trace file at path and writes
// it through a buffer. appendTo writes after what the file holds; otherwise
// the file is truncated.
func OpenTraceFile(path string, appendTo bool, opts TraceOptions) (*TraceSink, error) {
	mode := os.O_TRUNC
	if appendTo {
		mode = os.O_APPEND
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return nil, err
	}
	buf := bufio.NewWriter(f)
	return &TraceSink{w: buf, opts: opts, buf: buf, file: f}, nil
}

// Flush writes out what the sink has buffered, under its write lock, so
// the file ends on a line boundary. A failed write is latched.
func (s *TraceSink) Flush() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf != nil && s.err == nil {
		s.err = s.buf.Flush()
	}
}

// Close flushes the sink and closes the file it owns, returning the first
// error the sink met: a latched write error, the flush's or the close's.
func (s *TraceSink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf != nil && s.err == nil {
		s.err = s.buf.Flush()
	}
	err := s.err
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
	}
	s.err = cmp.Or(err, os.ErrClosed) // events recorded after Close are dropped
	return err
}

// Record offers one event to the sink. The event's Seq field is assigned
// here (the global offer order, so sampled traces still show their stride).
func (s *TraceSink) Record(ev *TraceEvent) {
	if s == nil {
		return
	}
	seq := s.seq.Add(1) - 1
	ev.Seq = seq
	if s.opts.Sample > 1 && seq%int64(s.opts.Sample) != 0 {
		s.dropped.Add(1)
		return
	}
	if s.opts.Max > 0 && s.recorded.Load() >= int64(s.opts.Max) {
		s.dropped.Add(1)
		return
	}
	s.writeLine(ev)
}

// ShardEvent records one shard-lifecycle transition of a distributed
// campaign — the coordinator-side forensics trail (requeue storms,
// straggler workers, heartbeat gaps) that makes a fleet run diagnosable
// after the fact. Kind is one of "lease", "heartbeat_gap", "expired",
// "requeued", "failed", "completed" or "exhausted".
type ShardEvent struct {
	Kind string `json:"shard_event"`
	TS   int64  `json:"ts_ns"` // event time, unix nanoseconds

	Shard   int    `json:"shard"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"` // lease grants so far, 1-based

	GapMs     int64  `json:"gap_ms,omitempty"`     // heartbeat_gap: silence length
	LatencyMs int64  `json:"latency_ms,omitempty"` // completed: lease grant → completion
	Detail    string `json:"detail,omitempty"`
}

// RecordJSON writes any marshalable value as one unsampled JSONL line —
// every event shape beyond the injection lifecycle (shard, allocation and
// convergence events, worker-attached trace segments). Such events are rare,
// so they bypass the sink's sampling and Max budget; they share the writer,
// the serialization lock and the latched error with injection events.
func (s *TraceSink) RecordJSON(v any) {
	if s == nil {
		return
	}
	s.writeLine(v)
}

func (s *TraceSink) writeLine(v any) {
	data, err := json.Marshal(v)
	if err != nil { // all field types are marshalable; defensive only
		s.dropped.Add(1)
		return
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		s.dropped.Add(1)
		return
	}
	if _, err := s.w.Write(data); err != nil {
		s.err = err
		s.dropped.Add(1)
		return
	}
	s.recorded.Add(1)
}

// Recorded returns the number of events written.
func (s *TraceSink) Recorded() int64 {
	if s == nil {
		return 0
	}
	return s.recorded.Load()
}

// Dropped returns the number of events sampled out, over budget, or lost to
// a write error.
func (s *TraceSink) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Err returns the first write error, if any.
func (s *TraceSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
