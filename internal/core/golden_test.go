package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"sfi/internal/engine"
	"sfi/internal/obs"
)

// Golden report digests. The equivalence tests elsewhere in this package
// compare two paths of the same commit, so a change that shifts both sides
// goes unseen; these constants pin the reports themselves. They were
// recorded on the executor as it stood before the flat and stratified
// campaign loops were merged and must only change together with a
// deliberate change of the sampling, allocation or classification contract.
// The uniform-stop rows were recorded when a keyless draw began stopping at
// the smallest converged prefix of its dispatch order.
const (
	goldenP6liteUniform     = "02786f64c5ee9f9712afafff4e1b6515b00e2e36988c2c360e9ba7844177f4f1"
	goldenP6liteNeyman      = "5964f5e3835cb340ade0f1f2aeddab9b1d6a15237e671837a3b9c389fa5c5733"
	goldenP6liteNeymanStop  = "dacf195911fc0ce2c438f3c1a57aa9578fecb5e44391af5caa23691c40c3f4b9"
	goldenP6liteStratum     = "f4296f2f0e052962d428a87db9c3224ad7e32362f0c9fd158157896d8d977755"
	goldenAwanUniform       = "5657b2cf295ff2ff8f9cb01b727888fb867de50eb1bf78a722ef229a04f94293"
	goldenAwanNeyman        = "75176331862dcf4312f119548d924051355195c5566eaaadd90c41c645788ac4"
	goldenAwanNeymanStop    = "521d382ac87d1ed78507fd5ff75d2445064cf599e5dbc3e7279bccfdf23d1d63"
	goldenAllocationEvents  = "7cc9bf2dcbfe3f7598572bddf209e288d7e39a445c118019e0f7c4156104f770"
	goldenAllocateSpans     = "6aa498f1b2fac08de752162d80d9dbfbdfca98d461f27de3fcfbf26da2dfc315"
	goldenAwanStratum       = "df8e4cfe21c27a021745487e9010057163e161dd2ad15c52e2bf741628a913f3"
	goldenP6liteUniformStop = "7fa1cddbba6bd864fd0ad343b46a21751751dd3dbb10f8c0a2037dc0d835ebf7"
	goldenAwanUniformStop   = "f841081cc7aa2af7ff9cda7bcb35b6b5efbdbe29d6baac1765dd3a7b73282840"
)

// Digests of the injection modes and machine configurations the toggle rows
// above never reach — the sticky force, the span flip and the monitored
// run's raw and no-recovery exits — plus per-result digests: the report JSON
// drops vanished results, so only these pin the cycle count of the common
// case. Recorded while p6lite still drove the model through internal/emu.
const (
	goldenP6liteSticky200    = "c5ababab295a04a7fe9e0450d655dcf72743472c651176dd2c3d5ab95616553d"
	goldenP6liteStickyPerm   = "b4752067189ad9c8b593667565a6f38fb559d4cd4eea4bf20540f79e44cd9205"
	goldenP6liteSpan3        = "7052e7ebddc2f2014bb9570c7d21a1402e597c0d87d2df24218407cc75c83162"
	goldenP6liteRaw          = "953fad40cf50c26541fd9388f40b22081f852fe3d016a2ab35a53f867b60f455"
	goldenP6liteNoRecovery   = "f3f4a13d94ef28a50077fc74d0889be3e890390954aa4cde4e61711b8cbb4171"
	goldenP6liteToggleRes    = "0545dbd1b1f7a8083c8102ff6e2c54214717a2a59c8269d6691bd6f5cf727dd7"
	goldenP6liteSticky200Res = "517bf944336cacb96c955f99f5821ea35d5b58ee8c6e6531d2e1e091961df316"
	goldenP6liteSpan3Res     = "ec5ade415d8ed61db92d4f64ad3cf34e0ee634de8e65158a536a122e356c9228"
)

// resultsDigest is the SHA-256 over every kept Result, vanished ones
// included, one line each.
func resultsDigest(rep *Report) string {
	h := sha256.New()
	for _, r := range rep.Results {
		fmt.Fprintf(h, "%d %s %d %d %d %v %s %d\n", r.Bit, r.Outcome, r.Cycles, r.TestEnds,
			r.Recoveries, r.Detected, r.FirstChecker, r.DetectLatency)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reportDigest is the SHA-256 of the report's stable wire JSON.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func goldenBase(backend string) CampaignConfig {
	if backend == "awan" {
		return awanCampaignConfig()
	}
	return fastCampaignConfig()
}

// uniformStop arms a StopOnConverge rule on a flat campaign of the backend's
// golden shape that converges well inside the budget.
func uniformStop(backend string, c *CampaignConfig) {
	if backend == "awan" {
		c.Stop = StopConfig{TargetMargin: 0.5, MinPerClass: 10, StopOnConverge: true}
		return
	}
	c.Flips = 400
	c.Stop = StopConfig{TargetMargin: 0.2, MinPerClass: 25, StopOnConverge: true}
}

func TestGoldenReportDigests(t *testing.T) {
	for _, tc := range []struct {
		name, backend, want string
		mutate              func(*CampaignConfig)
		// early: the rule is loose enough that every stratum converges or
		// is exhausted a few epochs in (200 of 400 flips on p6lite, 45 of
		// 120 on awan), so the campaign must stop before the budget is spent.
		early bool
		// wantResults, when set, pins resultsDigest of the kept Results.
		wantResults string
	}{
		{"p6lite/uniform", "p6lite", goldenP6liteUniform, func(c *CampaignConfig) {}, false, goldenP6liteToggleRes},
		{"p6lite/neyman", "p6lite", goldenP6liteNeyman, func(c *CampaignConfig) {
			c.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 3}
		}, false, ""},
		{"p6lite/sticky-200", "p6lite", goldenP6liteSticky200, func(c *CampaignConfig) {
			c.Runner.Mode = engine.Sticky
			c.Runner.StickyCycles = 200
		}, false, goldenP6liteSticky200Res},
		{"p6lite/sticky-permanent", "p6lite", goldenP6liteStickyPerm, func(c *CampaignConfig) {
			c.Runner.Mode = engine.Sticky
		}, false, ""},
		{"p6lite/span3", "p6lite", goldenP6liteSpan3, func(c *CampaignConfig) {
			// 200 flips: in the default 120 no flipped neighbour changes a
			// result, so the row would only repeat the toggle digests.
			c.Flips = 200
			c.Runner.SpanBits = 3
		}, false, goldenP6liteSpan3Res},
		{"p6lite/raw", "p6lite", goldenP6liteRaw, func(c *CampaignConfig) {
			c.Runner.CheckersOn = false
		}, false, ""},
		{"p6lite/no-recovery", "p6lite", goldenP6liteNoRecovery, func(c *CampaignConfig) {
			c.Runner.RecoveryOn = false
		}, false, ""},
		{"p6lite/neyman-stop", "p6lite", goldenP6liteNeymanStop, func(c *CampaignConfig) {
			c.Flips = 400
			c.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 8}
			c.Stop = StopConfig{TargetMargin: 0.9, MinPerClass: 3, StopOnConverge: true}
		}, true, ""},
		{"p6lite/uniform-stop", "p6lite", goldenP6liteUniformStop, func(c *CampaignConfig) {
			uniformStop("p6lite", c)
		}, true, ""},
		{"awan/uniform", "awan", goldenAwanUniform, func(c *CampaignConfig) {}, false, ""},
		{"awan/uniform-stop", "awan", goldenAwanUniformStop, func(c *CampaignConfig) {
			uniformStop("awan", c)
		}, true, ""},
		{"awan/neyman", "awan", goldenAwanNeyman, func(c *CampaignConfig) {
			c.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 3}
		}, false, ""},
		{"awan/neyman-stop", "awan", goldenAwanNeymanStop, func(c *CampaignConfig) {
			c.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 8}
			c.Stop = StopConfig{TargetMargin: 0.5, MinPerClass: 10, StopOnConverge: true}
		}, true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				cfg := goldenBase(tc.backend)
				tc.mutate(&cfg)
				cfg.Workers = workers
				rep, err := RunCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.early && (rep.Total >= cfg.Flips || !rep.Convergence.Converged) {
					t.Fatalf("workers=%d: ran %d of %d flips, converged=%v; want an early stop",
						workers, rep.Total, cfg.Flips, rep.Convergence.Converged)
				}
				if !tc.early && rep.Total != cfg.Flips {
					t.Fatalf("workers=%d: ran %d of %d flips", workers, rep.Total, cfg.Flips)
				}
				if got := reportDigest(t, rep); got != tc.want {
					t.Errorf("workers=%d: report digest %s, want %s", workers, got, tc.want)
				}
				if tc.wantResults == "" {
					continue
				}
				if len(rep.Results) != rep.Total {
					t.Fatalf("workers=%d: kept %d results of %d", workers, len(rep.Results), rep.Total)
				}
				if got := resultsDigest(rep); got != tc.wantResults {
					t.Errorf("workers=%d: results digest %s, want %s", workers, got, tc.wantResults)
				}
			}
		})
	}
}

// TestGoldenStratumShardDigests pins a stratum's sequence prefix executed
// whole and as two merged stratum shards: both must hash to the constant.
func TestGoldenStratumShardDigests(t *testing.T) {
	for _, tc := range []struct{ backend, want string }{
		{"p6lite", goldenP6liteStratum},
		{"awan", goldenAwanStratum},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			cfg := goldenBase(tc.backend)
			cfg.Workers = 2
			proto, err := NewRunner(cfg.Runner)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range BuildSamplePlan(proto.DB(), cfg.Seed, nil).Strata {
				if s.Population() >= 20 {
					cfg.Stratum = s.Key
					break
				}
			}
			if cfg.Stratum == "" {
				t.Fatal("no stratum with at least 20 bits")
			}
			for _, split := range [][]ShardRange{{{0, 20}}, {{0, 10}, {10, 20}}} {
				merged := &Report{}
				for _, sr := range split {
					scfg := cfg
					scfg.Shard = &sr
					rep, err := RunCampaignWith(context.Background(), proto, scfg)
					if err != nil {
						t.Fatal(err)
					}
					merged.Merge(rep)
				}
				if got := reportDigest(t, merged); got != tc.want {
					t.Errorf("stratum %s as %v: digest %s, want %s", cfg.Stratum, split, got, tc.want)
				}
			}
		})
	}
}

// TestGoldenAllocationTrail pins what a Neyman campaign tells its observers
// about each epoch: the allocation JSONL events byte for byte, and the
// "allocate" spans with their IDs (one scalar worker, so the tracer's
// seeded ID stream is consumed in a fixed order).
func TestGoldenAllocationTrail(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCampaignConfig()
	cfg.Workers = 1
	cfg.Alloc = AllocConfig{Mode: AllocNeyman, Epochs: 3}
	cfg.Obs.Trace = obs.NewTraceSink(&buf, obs.TraceOptions{Sample: 1 << 30}) // mute injection events
	cfg.Obs.Tracer = obs.NewTracer(cfg.Seed)
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	var events []byte
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"allocation":`)) {
			events = append(events, line...)
		}
	}
	sum := sha256.Sum256(events)
	if got := hex.EncodeToString(sum[:]); got != goldenAllocationEvents {
		t.Errorf("allocation events digest %s, want %s", got, goldenAllocationEvents)
	}
	var spans string
	for _, sp := range cfg.Obs.Tracer.Spans() {
		if sp.Name == "allocate" {
			spans += fmt.Sprintf("%s %s %s %s epoch=%s budget=%s\n",
				sp.TraceID, sp.SpanID, sp.ParentID, sp.Layer, sp.Attrs["epoch"], sp.Attrs["budget"])
		}
	}
	sum = sha256.Sum256([]byte(spans))
	if got := hex.EncodeToString(sum[:]); got != goldenAllocateSpans {
		t.Errorf("allocate spans digest %s, want %s:\n%s", got, goldenAllocateSpans, spans)
	}
}
