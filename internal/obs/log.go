package obs

import (
	"fmt"
	"io"
	"log/slog"
	"reflect"
	"strings"
)

// Structured event logging for campaign processes. The coordinator,
// workers and the sfi binaries all log through log/slog with a common
// construction path, so every lifecycle event carries machine-parseable
// campaign/shard/worker attributes instead of ad-hoc printf lines.

// NewLogger builds a leveled slog.Logger writing one event per line to w:
// JSON objects when jsonFormat is set (the fleet default — greppable and
// ingestible), logfmt-style text otherwise.
func NewLogger(w io.Writer, level slog.Level, jsonFormat bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// ParseLogLevel maps a flag value ("debug", "info", "warn", "error") to
// its slog level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// NopLogger returns a logger that discards every record — the nil-config
// default for library components, so call sites never nil-check.
func NopLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

// EventAttrs renders a JSONL trace event (ShardEvent, AllocationEvent,
// ConvergenceEvent) as log attributes: its fields under their JSONL names,
// minus the ones its encoding omits and minus the discriminator and the
// timestamp, which a log record states as its message and time. A component
// that says a transition to its trace and to its log derives the second from
// the first, so the two cannot disagree.
func EventAttrs(ev any) []slog.Attr {
	v := reflect.Indirect(reflect.ValueOf(ev))
	attrs := make([]slog.Attr, 0, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if sf.Name == "Kind" || sf.Name == "TS" || (opts == "omitempty" && f.IsZero()) {
			continue
		}
		attrs = append(attrs, slog.Any(name, f.Interface()))
	}
	return attrs
}
