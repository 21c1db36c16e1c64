package main

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sfi/internal/dist"
	"sfi/internal/obs"
)

// syncBuffer is a coordinator's shard trace, written from its handler
// goroutines and read after the campaign.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestAttachFlagZeroIsNone: -trace-attach 0 and -span-attach 0 send a
// coordinator that records a shard trace and traces spans nothing of either,
// where the flags' defaults send both.
func TestAttachFlagZeroIsNone(t *testing.T) {
	fs := flag.NewFlagSet("sfi-coord", flag.ContinueOnError)
	spec := dist.CampaignFlags(fs, 20)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	campaign, err := spec()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		attach, spans int
		sent          bool
	}{{0, 0, false}, {32, 512, true}} {
		var shardTrace syncBuffer
		tracer := obs.NewTracer(1)
		c, err := dist.NewCoordinator(dist.CoordConfig{Campaign: campaign, ShardSize: 10,
			ShardTrace: obs.NewTraceSink(&shardTrace, obs.TraceOptions{}), Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c.Handler())
		err = run(workerArgs{coord: srv.URL, id: "w", poll: 20 * time.Millisecond,
			attach: tc.attach, spans: tc.spans, logLevel: "error", quiet: true})
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.Close()
		shardTrace.mu.Lock()
		lines := bytes.Count(shardTrace.buf.Bytes(), []byte(`"injection":`))
		shardTrace.mu.Unlock()
		spans := 0
		for _, sp := range tracer.Spans() {
			if sp.Layer == "worker" {
				spans++
			}
		}
		if (lines > 0) != tc.sent || (spans > 0) != tc.sent {
			t.Errorf("-trace-attach %d -span-attach %d: the coordinator got %d trace lines and %d worker spans",
				tc.attach, tc.spans, lines, spans)
		}
	}
}
