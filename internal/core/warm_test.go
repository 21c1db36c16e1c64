package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sfi/internal/engine"
)

// buildCounter registers a backend that builds another backend's model and
// counts each engine.New by image digest.
type buildCounter struct {
	mu     sync.Mutex
	builds map[string]int
}

// register registers the counting backend over inner and returns its name.
func (bc *buildCounter) register(inner string) string {
	bc.builds = make(map[string]int)
	name := fmt.Sprintf("%s-builds-%p", inner, bc)
	engine.Register(name, func(cfg engine.Config) (engine.Backend, error) {
		bc.mu.Lock()
		bc.builds[engine.ImageDigest(cfg)]++
		bc.mu.Unlock()
		cfg.Backend = inner
		return engine.New(cfg)
	})
	return name
}

// total returns how many models were built, and over how many digests.
func (bc *buildCounter) total() (builds, digests int) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, n := range bc.builds {
		builds += n
	}
	return builds, len(bc.builds)
}

// coldReport runs cfg the way every campaign ran before the process image
// cache: on a freshly built prototype.
func coldReport(t *testing.T, cfg CampaignConfig) string {
	t.Helper()
	proto, err := NewRunner(cfg.Runner)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCampaignWith(context.Background(), proto, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reportDump(t, rep)
}

// TestWarmRunnerBootsOnce runs campaign after campaign of a few shapes on
// both backends through RunCampaign: the process builds one model per image
// digest, none for a campaign after the first on its digest, and every report
// is byte-equal to the same campaign on a freshly built prototype.
func TestWarmRunnerBootsOnce(t *testing.T) {
	shapes := []struct {
		name   string
		mutate func(*CampaignConfig)
	}{
		{"uniform", func(*CampaignConfig) {}},
		{"neyman", func(c *CampaignConfig) { c.Alloc = AllocConfig{Mode: AllocNeyman} }},
		{"sticky", func(c *CampaignConfig) { c.Runner.Mode, c.Runner.StickyCycles = engine.Sticky, 9 }},
		{"keep-results", func(c *CampaignConfig) { c.KeepResults = true }},
	}
	for _, backend := range []string{"p6lite", "awan"} {
		t.Run(backend, func(t *testing.T) {
			counted := &buildCounter{}
			name := counted.register(backend)
			for _, sh := range shapes {
				for _, workers := range []int{1, 4} {
					cfg := goldenBase(backend)
					cfg.KeepResults = false
					sh.mutate(&cfg)
					cfg.Workers = workers
					want := coldReport(t, cfg)

					cfg.Runner.Backend = name
					before, _ := counted.total()
					rep, err := RunCampaign(cfg)
					if err != nil {
						t.Fatal(err)
					}
					after, _ := counted.total()
					if got := reportDump(t, rep); got != want {
						t.Errorf("%s, workers=%d: cached boot's report differs from a fresh prototype's:\n got %s\nwant %s",
							sh.name, workers, got, want)
					}
					// The first campaign on a digest builds it, every later one clones.
					if first := sh.name == "uniform" || sh.name == "sticky"; first && workers == 1 {
						if after-before != 1 {
							t.Errorf("%s, workers=%d: first campaign on its config built %d models, want 1", sh.name, workers, after-before)
						}
					} else if after != before {
						t.Errorf("%s, workers=%d: built %d models, want 0 (the image is cached)", sh.name, workers, after-before)
					}
				}
			}
			if builds, digests := counted.total(); builds != digests || digests != 2 {
				t.Errorf("%d builds over %d image digests, want one build for each of 2", builds, digests)
			}
		})
	}
}

// TestWarmRunnerConcurrentCampaigns starts eight campaigns on one config at
// once: they share one build, and each report equals a fresh prototype's.
// Handing the cached prototype itself to more than one campaign fails here
// (and under -race).
func TestWarmRunnerConcurrentCampaigns(t *testing.T) {
	counted := &buildCounter{}
	cfg := fastCampaignConfig()
	cfg.Workers = 2
	want := coldReport(t, cfg)
	cfg.Runner.Backend = counted.register("p6lite")

	const campaigns = 8
	got := make([]string, campaigns)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := RunCampaign(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = reportDump(t, rep)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("campaign %d: report differs from a fresh prototype's:\n got %s\nwant %s", i, g, want)
		}
	}
	if builds, _ := counted.total(); builds != 1 {
		t.Errorf("%d concurrent campaigns built %d models, want 1", campaigns, builds)
	}
	// Every caller owns the runner it gets: a clone, never the prototype.
	a, errA := WarmRunner(cfg.Runner)
	b, errB := WarmRunner(cfg.Runner)
	if errA != nil || errB != nil || a == b {
		t.Errorf("two WarmRunner calls returned (%p, %v) and (%p, %v), want two distinct clones", a, errA, b, errB)
	}
}

// BenchmarkRunCampaign times RunCampaign on the default toggle campaign at
// 1, 2 and 4 workers with the image already cached, so an op is dispatch and
// injection only; builds/op shows it.
func BenchmarkRunCampaign(b *testing.B) {
	cfg := DefaultCampaignConfig()
	if _, err := WarmRunner(cfg.Runner); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg.Workers = workers
			misses := warm.Stats().Misses
			injections := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := RunCampaign(cfg)
				if err != nil {
					b.Fatal(err)
				}
				injections += rep.Total
			}
			b.ReportMetric(float64(injections)/b.Elapsed().Seconds(), "inj/s")
			b.ReportMetric(float64(warm.Stats().Misses-misses)/float64(b.N), "builds/op")
		})
	}
}
