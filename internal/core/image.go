package core

import (
	"sync"

	"sfi/internal/engine"
	"sfi/internal/obs"
)

// ImageCache holds warm checkpoint images — built, warmed, checkpointed
// prototype runners — keyed by engine.ImageDigest of their config. The
// expensive phase-1/2 boot (AVP generation, warm-up, phased checkpoints)
// is identical for every campaign on the same (backend, workload, config)
// digest, so the cache builds it once and serves each campaign a cheap
// warm clone. Cached prototypes are never run: they exist only to be
// cloned, which keeps them quiescent and makes concurrent clones safe.
//
// Builds are single-flight: concurrent requests for the same digest share
// one build, and a failed build is evicted so the next request retries.
type ImageCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*imageEntry
	clock   uint64 // requests so far: the LRU order's time

	hits, misses uint64

	// build is the prototype constructor (NewRunner); a seam so tests can
	// count and fail builds.
	build func(RunnerConfig) (*Runner, error)
}

type imageEntry struct {
	ready chan struct{} // closed when the build finished (either way)
	proto *Runner
	err   error
	used  uint64 // clock at the latest request for the image
}

// NewImageCache returns a cache bounded to max images (≤0 = 4). Eviction
// is LRU; an evicted image is rebuilt on next use.
func NewImageCache(max int) *ImageCache {
	if max <= 0 {
		max = 4
	}
	return &ImageCache{
		max:     max,
		entries: make(map[string]*imageEntry),
		build:   NewRunner,
	}
}

// warm is the process's image cache: local campaigns and in-process dist
// workers boot from it.
var warm = NewImageCache(4)

// WarmRunner returns a warm clone of the process-wide checkpoint image for
// cfg, building the image on first use: repeated campaigns on one config
// pay the boot once. The cache holds at most 4 images, least recently used
// evicted first.
func WarmRunner(cfg RunnerConfig) (*Runner, error) {
	r, _, err := warm.Runner(cfg)
	return r, err
}

// Runner returns a warm clone of the checkpoint image for cfg, building
// the image first if the cache doesn't hold it. hit reports whether the
// image was already cached (including joining a build in flight — the
// boot cost is shared either way); a request that joined a build which
// then failed is a miss.
func (c *ImageCache) Runner(cfg RunnerConfig) (proto *Runner, hit bool, err error) {
	digest := engine.ImageDigest(cfg)
	c.mu.Lock()
	e, joined := c.entries[digest]
	if !joined {
		e = &imageEntry{ready: make(chan struct{})}
		c.entries[digest] = e
	}
	c.clock++
	e.used = c.clock
	c.evictLocked()
	c.mu.Unlock()

	if joined {
		<-e.ready
	} else {
		// Build outside the lock: a boot takes long enough that holding the
		// cache closed would serialize unrelated campaigns behind it.
		e.proto, e.err = c.build(cfg)
	}
	c.mu.Lock()
	hit = joined && e.err == nil
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	if e.err != nil && c.entries[digest] == e {
		delete(c.entries, digest)
	}
	c.mu.Unlock()
	if !joined {
		close(e.ready)
	}
	if e.err != nil {
		return nil, false, e.err
	}
	return e.proto.Clone(), hit, nil
}

// RunnerTraced is Runner with the image acquisition recorded as a span
// under parent: a cache miss becomes an "image.build" span covering the
// shared prototype boot, a hit becomes an "image.clone" span covering only
// the warm clone (including any wait for a build in flight). A nil tracer
// degrades to plain Runner.
func (c *ImageCache) RunnerTraced(cfg RunnerConfig, tr *obs.Tracer, parent obs.SpanContext) (*Runner, bool, error) {
	if tr == nil {
		return c.Runner(cfg)
	}
	sp := tr.StartSpan("image.build", "store", parent)
	proto, hit, err := c.Runner(cfg)
	if hit {
		sp.Name = "image.clone"
	}
	sp.Attr("digest", engine.ImageDigest(cfg))
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End()
	return proto, hit, err
}

// ImageStats is a point-in-time view of an image cache's effectiveness.
type ImageStats struct {
	Images   int     `json:"images"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// Stats returns the cache's hit/miss counters.
func (c *ImageCache) Stats() ImageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ImageStats{Images: len(c.entries), Hits: c.hits, Misses: c.misses}
	if total := c.hits + c.misses; total > 0 {
		st.HitRatio = float64(c.hits) / float64(total)
	}
	return st
}

// evictLocked enforces the size bound, evicting least-recently-used images
// (never the one just requested: it holds the newest clock reading).
func (c *ImageCache) evictLocked() {
	for len(c.entries) > c.max {
		var lru string
		for d, e := range c.entries {
			if lru == "" || e.used < c.entries[lru].used {
				lru = d
			}
		}
		delete(c.entries, lru)
	}
}
