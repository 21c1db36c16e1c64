package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sfi/internal/core"
	"sfi/internal/obs"
)

// BenchmarkLedgerViews times the coordinator's two read-only views of a
// 64-shard campaign with 60 shards completed and 4 leased and heartbeating,
// every snapshot carrying per-unit rows and histograms: a Status() read and
// a /metrics scrape. Both hold the ledger lock for part of their time, which
// is what the lease path waits for while a dashboard polls.
func BenchmarkLedgerViews(b *testing.B) {
	spec := testSpec()
	spec.Flips = 640
	spec.Stop = core.StopConfig{TargetMargin: 0.05} // observe-only: every view evaluates the rule
	c, err := NewCoordinator(CoordConfig{Campaign: spec, ShardSize: 10})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	snapshot := func(n int) *obs.Snapshot {
		m := obs.New([]string{"", "vanished", "corrected", "hang", "checkstop", "sdc"})
		for i := 0; i < n; i++ {
			m.Fold(obs.Injection{Outcome: 1 + i%2, Unit: fmt.Sprint("U", i%4), LatchType: "FUNC",
				WallNs: uint64(1000 + i), RestoreNs: uint64(100 + i), Cycles: uint64(200 + i), Stepped: uint64(50 + i)})
		}
		return m.Snapshot()
	}
	for i := 0; i < 64; i++ {
		worker := fmt.Sprint("w", i%4)
		resp, status, err := c.lease(context.Background(), leaseRequest{Worker: worker})
		if err != nil || status != http.StatusOK {
			b.Fatalf("lease %d: status %d, %v", i, status, err)
		}
		if i >= 60 {
			if status, err := c.heartbeat(heartbeatRequest{Worker: worker, Shard: resp.Shard.ID, Metrics: snapshot(6)}); status != http.StatusOK {
				b.Fatalf("heartbeat: status %d, %v", status, err)
			}
			continue
		}
		wire := fakeWire(10)
		wire.Metrics = snapshot(10)
		if status, err := c.complete(completeRequest{Worker: worker, Shard: resp.Shard.ID, Report: wire}); status != http.StatusOK {
			b.Fatalf("complete: status %d, %v", status, err)
		}
	}
	b.Run("status", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Status()
		}
	})
	scrape := func() {
		c.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}
	b.Run("metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scrape()
		}
	})
	// A heartbeat of a leased shard while another goroutine scrapes
	// /metrics back to back: the lease path's cost of a busy dashboard.
	b.Run("heartbeat-while-scraped", func(b *testing.B) {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					scrape()
				}
			}
		}()
		beat := heartbeatRequest{Worker: "w0", Shard: 60, Metrics: snapshot(6)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if status, err := c.heartbeat(beat); status != http.StatusOK {
				b.Fatalf("heartbeat: status %d, %v", status, err)
			}
		}
		b.StopTimer()
		close(stop)
		<-done
	})
}
