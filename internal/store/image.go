package store

import "sfi/internal/core"

// ImageCache is core's warm checkpoint-image cache, named here (with
// NewImageCache) for benchmark/layers.go's store.image_clone_us probe.
type ImageCache = core.ImageCache

// NewImageCache returns a cache bounded to max images (≤0 = 4).
func NewImageCache(max int) *ImageCache { return core.NewImageCache(max) }
