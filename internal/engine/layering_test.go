package engine

import (
	"go/build"
	"testing"
)

// TestCampaignLayersStayAboveTheSeam: everything above this package —
// campaign loop, distribution, service, store — reaches the machine models
// only through the Backend contract, so none of it may import a model
// package directly (non-test files; tests build their own fixtures).
func TestCampaignLayersStayAboveTheSeam(t *testing.T) {
	models := map[string]bool{
		"sfi/internal/proc": true,
		"sfi/internal/awan": true,
		"sfi/internal/avp":  true,
	}
	for _, name := range []string{"core", "dist", "server", "store"} {
		pkg, err := build.ImportDir("../"+name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if models[imp] {
				t.Errorf("internal/%s imports %s: model access belongs behind engine.Backend", name, imp)
			}
		}
	}
}
