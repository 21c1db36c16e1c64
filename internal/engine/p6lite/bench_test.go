package p6lite

import (
	"testing"

	"sfi/internal/engine"
)

func benchConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.AVP.Testcases = 6
	cfg.AVP.BodyOps = 14
	return cfg
}

// BenchmarkRestoreCheckpoint compares the dirty-tracking restore fast path
// against the full-copy slow path at the default memory size. Each
// iteration perturbs the model the way an injection does (flip + a short
// run) before restoring, so the dirty path pays a realistic dirty-set cost.
func BenchmarkRestoreCheckpoint(b *testing.B) {
	be, err := New(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := be.(*Backend)
	c := r.core
	ck := r.ckpts[0]
	perturb := func() {
		c.DB().Flip(0)
		for i := 0; i < 200; i++ {
			c.Step()
		}
	}
	b.Run("dirty", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			perturb()
			b.StartTimer()
			c.RestoreCheckpoint(ck)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			perturb()
			b.StartTimer()
			c.RestoreCheckpointFull(ck)
		}
	})
}
