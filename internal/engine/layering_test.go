package engine

import (
	"go/build"
	"testing"
)

// forbidImports fails for every non-test import of a banned package by one
// of the internal packages named (tests build their own fixtures).
func forbidImports(t *testing.T, pkgs []string, banned map[string]bool, why string) {
	t.Helper()
	for _, name := range pkgs {
		pkg, err := build.ImportDir("../"+name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if banned[imp] {
				t.Errorf("internal/%s imports %s: %s", name, imp, why)
			}
		}
	}
}

// TestCampaignLayersStayAboveTheSeam: everything above this package —
// campaign loop, distribution, service, store — reaches the machine models
// only through the Backend contract, so none of it may import a model
// package directly.
func TestCampaignLayersStayAboveTheSeam(t *testing.T) {
	forbidImports(t, []string{"core", "dist", "server", "store"}, map[string]bool{
		"sfi/internal/proc": true,
		"sfi/internal/awan": true,
		"sfi/internal/avp":  true,
	}, "model access belongs behind engine.Backend")
}

// TestModelsStayBelowObservability: an injection is measured in one place,
// core.Runner.record, from what the Backend contract returns (RunStats,
// BatchStats), so neither this package, the backends nor the models and
// stores under them may import the observability layer.
func TestModelsStayBelowObservability(t *testing.T) {
	forbidImports(t, []string{"engine", "engine/p6lite", "engine/awan", "proc", "awan", "latch", "mem", "array", "dirty"},
		map[string]bool{"sfi/internal/obs": true},
		"a model reports through engine.RunStats, and core.Runner.record observes it")
}
