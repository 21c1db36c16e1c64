package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sfi/internal/dist"
)

// TestFailedCampaignKeepsShardTrace: a campaign that fails still leaves its
// -shard-trace behind. One hand-made worker leases a shard and never
// heartbeats; with one attempt allowed the lease's expiry exhausts the
// shard, run returns that error, and the trace file holds the lease, its
// expiry and the exhaustion — the requeue trail the flag exists for.
func TestFailedCampaignKeepsShardTrace(t *testing.T) {
	fs := flag.NewFlagSet("sfi-coord", flag.ContinueOnError)
	spec := dist.CampaignFlags(fs, 20)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var a coordArgs
	var err error
	if a.spec, err = spec(); err != nil {
		t.Fatal(err)
	}
	a.shardSize = 10
	a.ttl = 50 * time.Millisecond
	a.attempts = 1
	a.shardTrace = filepath.Join(t.TempDir(), "shards.trace")
	a.logLevel = "error"
	a.quiet = true

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	done := make(chan error, 1)
	go func() { done <- run(addr, a) }()

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Post("http://"+addr+"/v1/lease", "application/json", strings.NewReader(`{"worker":"silent"}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no lease granted: %v", err)
		}
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "attempts") {
			t.Fatalf("run = %v, want the shard's exhausted attempts", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the lease expired")
	}

	f, err := os.Open(a.shardTrace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]bool{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var ev struct {
			Kind string `json:"shard_event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"lease", "expired", "exhausted"} {
		if !kinds[want] {
			t.Errorf("shard trace lacks a %q event (has %v)", want, kinds)
		}
	}
}
