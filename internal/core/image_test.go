package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sfi/internal/engine"
)

// tinyConfig is a runner spec small enough to build for real in tests.
func tinyConfig(seed int) RunnerConfig {
	cfg := DefaultRunnerConfig()
	cfg.AVP.Testcases = 2
	cfg.AVP.BodyOps = 4 + seed
	return cfg
}

// countBuilds wraps c's builder with a counter.
func countBuilds(c *ImageCache) *atomic.Int64 {
	var builds atomic.Int64
	inner := c.build
	c.build = func(cfg RunnerConfig) (*Runner, error) {
		builds.Add(1)
		return inner(cfg)
	}
	return &builds
}

func TestImageCacheHitMiss(t *testing.T) {
	c := NewImageCache(4)
	builds := countBuilds(c)

	r1, hit, err := c.Runner(tinyConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request reported a cache hit")
	}
	r2, hit, err := c.Runner(tinyConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second request for the same config missed")
	}
	if r1 == r2 {
		t.Fatal("cache handed out the same runner twice (must clone)")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("built %d prototypes, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Images != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 image", st)
	}

	// The clones actually work: both classify the same injection equally.
	a, b := r1.RunInjection(3), r2.RunInjection(3)
	if a.Outcome != b.Outcome {
		t.Fatalf("clones disagree: %v vs %v", a.Outcome, b.Outcome)
	}
}

func TestImageCacheSingleFlight(t *testing.T) {
	c := NewImageCache(4)
	builds := countBuilds(c)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Runner(tinyConfig(0)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("concurrent requests triggered %d builds, want 1 (single-flight)", n)
	}
}

func TestImageCacheBuildErrorEvicted(t *testing.T) {
	c := NewImageCache(4)
	boom := errors.New("boom")
	fail := true
	inner := c.build
	c.build = func(cfg RunnerConfig) (*Runner, error) {
		if fail {
			return nil, boom
		}
		return inner(cfg)
	}
	if _, _, err := c.Runner(tinyConfig(0)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the build error", err)
	}
	fail = false
	if _, hit, err := c.Runner(tinyConfig(0)); err != nil || hit {
		t.Fatalf("after a failed build, retry = (hit=%v, err=%v), want a fresh miss that succeeds", hit, err)
	}
}

// TestImageCacheFailedJoinIsNoHit: a request that joins a build in flight
// which then fails gets hit=false, and Stats must say so too. A second,
// healthy image makes the join observable: the joiner's request makes the
// failing image the more recently used of the two again.
func TestImageCacheFailedJoinIsNoHit(t *testing.T) {
	c := NewImageCache(4)
	boom := errors.New("boom")
	good, bad := tinyConfig(0), tinyConfig(1)
	goodDigest, badDigest := engine.ImageDigest(good), engine.ImageDigest(bad)
	started, release := make(chan struct{}), make(chan struct{})
	inner := c.build
	c.build = func(cfg RunnerConfig) (*Runner, error) {
		if engine.ImageDigest(cfg) != badDigest {
			return inner(cfg)
		}
		close(started)
		<-release
		return nil, boom
	}
	if _, _, err := c.Runner(good); err != nil {
		t.Fatal(err)
	}

	hits := make(chan bool, 2)
	request := func() {
		_, hit, err := c.Runner(bad)
		if !errors.Is(err, boom) {
			t.Errorf("err = %v, want the build error", err)
		}
		hits <- hit
	}
	go request() // the builder
	<-started
	if _, hit, err := c.Runner(good); err != nil || !hit { // now the more recent
		t.Fatalf("healthy image = (hit=%v, err=%v), want a hit", hit, err)
	}
	go request() // the joiner
	for joined := false; !joined; {
		c.mu.Lock()
		joined = c.entries[badDigest].used > c.entries[goodDigest].used
		c.mu.Unlock()
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < 2; i++ {
		if <-hits {
			t.Error("a request on a failed build reported a hit")
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 3 || st.Images != 1 {
		t.Fatalf("stats = %+v, want the healthy image's 1 hit, 3 misses and 1 image", st)
	}
}

func TestImageCacheLRUBound(t *testing.T) {
	c := NewImageCache(2)
	builds := countBuilds(c)
	for _, seed := range []int{0, 1, 2} { // 3 distinct images into a 2-image cache
		if _, _, err := c.Runner(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Images != 2 {
		t.Fatalf("cache holds %d images, want the 2-image bound", st.Images)
	}
	// Image 0 was least recently used and must have been evicted.
	if _, hit, err := c.Runner(tinyConfig(0)); err != nil || hit {
		t.Fatalf("evicted image reported (hit=%v, err=%v), want a rebuild miss", hit, err)
	}
	if n := builds.Load(); n != 4 {
		t.Fatalf("built %d prototypes, want 4 (3 fills + 1 rebuild)", n)
	}
}
