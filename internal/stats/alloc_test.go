package stats

import (
	"math"
	"reflect"
	"testing"
)

var allocClasses = []string{"", "vanished", "corrected", "sdc"}

func shareTotal(shares []StratumShare) int {
	n := 0
	for _, s := range shares {
		n += s.Next
	}
	return n
}

func shareByKey(t *testing.T, shares []StratumShare, key string) StratumShare {
	t.Helper()
	for _, s := range shares {
		if s.Stratum == key {
			return s
		}
	}
	t.Fatalf("no share for stratum %q in %v", key, shares)
	return StratumShare{}
}

// With no samples anywhere, every stratum's Laplace-smoothed p̃ is 1/2, so
// S_s is maximal and the first epoch bootstraps proportional to population.
func TestAllocateBootstrapProportional(t *testing.T) {
	strata := []StratumState{
		{Key: "a", Population: 100},
		{Key: "b", Population: 300},
	}
	shares := StopRule{TargetMargin: 0.05}.Allocate(allocClasses, strata, 40)
	if got := shareByKey(t, shares, "a").Next; got != 10 {
		t.Errorf("stratum a: got %d, want 10", got)
	}
	if got := shareByKey(t, shares, "b").Next; got != 30 {
		t.Errorf("stratum b: got %d, want 30", got)
	}
	if n := shareTotal(shares); n != 40 {
		t.Errorf("total allocated %d, want 40", n)
	}
}

// A stratum whose observed outcome mix sits near p=1/2 must out-draw an
// equal-population stratum whose outcomes are nearly unanimous.
func TestAllocateFavorsHighVariance(t *testing.T) {
	noisy := StratumState{
		Key: "noisy", Population: 1000, Drawn: 200, Total: 200,
		Counts: map[string]int64{"vanished": 100, "sdc": 100},
	}
	quiet := StratumState{
		Key: "quiet", Population: 1000, Drawn: 200, Total: 200,
		Counts: map[string]int64{"vanished": 199, "sdc": 1},
	}
	shares := StopRule{TargetMargin: 0.0001}.Allocate(allocClasses, []StratumState{noisy, quiet}, 100)
	n, q := shareByKey(t, shares, "noisy"), shareByKey(t, shares, "quiet")
	if n.Next <= q.Next {
		t.Errorf("noisy stratum drew %d, quiet drew %d; want noisy > quiet", n.Next, q.Next)
	}
	if n.Score <= q.Score {
		t.Errorf("noisy score %v <= quiet score %v", n.Score, q.Score)
	}
	if total := shareTotal(shares); total != 100 {
		t.Errorf("total allocated %d, want 100", total)
	}
}

// NeymanScore with no samples is exactly N_s·0.5; with unanimous outcomes it
// shrinks toward zero but stays positive (Laplace smoothing).
func TestNeymanScore(t *testing.T) {
	empty := StratumState{Key: "e", Population: 200}
	if got := NeymanScore(allocClasses, empty); math.Abs(got-100) > 1e-9 {
		t.Errorf("empty stratum score %v, want 100", got)
	}
	unanimous := StratumState{
		Key: "u", Population: 200, Total: 1000,
		Counts: map[string]int64{"vanished": 1000},
	}
	got := NeymanScore(allocClasses, unanimous)
	if got <= 0 || got >= 100 {
		t.Errorf("unanimous stratum score %v, want in (0, 100)", got)
	}
}

// Allocation never plans past a stratum's remaining capacity, and a budget
// larger than the total remaining capacity is truncated, not over-assigned.
func TestAllocateCapsAtCapacity(t *testing.T) {
	strata := []StratumState{
		{Key: "small", Population: 10, Drawn: 7}, // capacity 3
		{Key: "big", Population: 1000},
	}
	shares := StopRule{TargetMargin: 0.05}.Allocate(allocClasses, strata, 500)
	if got := shareByKey(t, shares, "small").Next; got > 3 {
		t.Errorf("small stratum allocated %d past capacity 3", got)
	}
	if total := shareTotal(shares); total != 500 {
		t.Errorf("total allocated %d, want 500", total)
	}

	// Budget exceeding every stratum's remaining capacity truncates.
	shares = StopRule{TargetMargin: 0.05}.Allocate(allocClasses, strata, 5000)
	if total := shareTotal(shares); total != 3+1000 {
		t.Errorf("total allocated %d, want %d (capacity sum)", total, 3+1000)
	}
}

// An exhausted stratum (drawn == population) draws nothing more.
func TestAllocateSkipsExhausted(t *testing.T) {
	strata := []StratumState{
		{Key: "done", Population: 50, Drawn: 50},
		{Key: "open", Population: 50},
	}
	shares := StopRule{TargetMargin: 0.05}.Allocate(allocClasses, strata, 30)
	if got := shareByKey(t, shares, "done"); got.Next != 0 || got.Score != 0 {
		t.Errorf("exhausted stratum got share %+v, want zero", got)
	}
	if got := shareByKey(t, shares, "open").Next; got != 30 {
		t.Errorf("open stratum got %d, want 30", got)
	}
}

// A converged stratum scores zero and the budget flows to unconverged ones.
func TestAllocateSkipsConverged(t *testing.T) {
	rule := StopRule{TargetMargin: 0.2, MinPerClass: 50}
	converged := StratumState{
		Key: "settled", Population: 10000, Drawn: 2000, Total: 2000,
		Counts: map[string]int64{"vanished": 2000},
	}
	if !rule.StratumConverged(ClassIntervals(allocClasses, converged.Counts, converged.Total, rule.Bound()), converged.Population) {
		t.Fatal("fixture stratum should be converged under the rule")
	}
	fresh := StratumState{Key: "fresh", Population: 10000, Drawn: 10, Total: 10}
	shares := rule.Allocate(allocClasses, []StratumState{converged, fresh}, 100)
	if got := shareByKey(t, shares, "settled"); got.Next != 0 || got.Score != 0 {
		t.Errorf("converged stratum got share %+v, want zero", got)
	}
	if got := shareByKey(t, shares, "fresh").Next; got != 100 {
		t.Errorf("fresh stratum got %d, want 100", got)
	}
}

// When every stratum has converged but budget remains (fixed-N stratified
// campaign), the leftover spreads proportional to remaining capacity rather
// than going unspent.
func TestAllocateSpendsBudgetWhenAllConverged(t *testing.T) {
	rule := StopRule{TargetMargin: 0.2, MinPerClass: 50}
	mk := func(key string, pop int) StratumState {
		return StratumState{
			Key: key, Population: pop, Drawn: 100, Total: 100,
			Counts: map[string]int64{"vanished": 100},
		}
	}
	strata := []StratumState{mk("a", 200), mk("b", 400)}
	shares := rule.Allocate(allocClasses, strata, 30)
	if total := shareTotal(shares); total != 30 {
		t.Fatalf("total allocated %d, want 30", total)
	}
	// Remaining capacity is 100 vs 300 → 1:3 split.
	a, b := shareByKey(t, shares, "a"), shareByKey(t, shares, "b")
	if a.Next+b.Next != 30 || b.Next <= a.Next {
		t.Errorf("capacity-proportional fallback got a=%d b=%d", a.Next, b.Next)
	}
}

// Largest-remainder rounding spends the budget exactly and the result is a
// pure function of its inputs — the property the coordinator journal's
// replay depends on.
func TestAllocateDeterministic(t *testing.T) {
	strata := []StratumState{
		{Key: "a", Population: 97, Drawn: 12, Total: 12, Counts: map[string]int64{"vanished": 11, "sdc": 1}},
		{Key: "b", Population: 311, Drawn: 45, Total: 45, Counts: map[string]int64{"vanished": 40, "corrected": 5}},
		{Key: "c", Population: 7, Drawn: 3, Total: 3, Counts: map[string]int64{"vanished": 3}},
	}
	rule := StopRule{TargetMargin: 0.03}
	first := rule.Allocate(allocClasses, strata, 73)
	if total := shareTotal(first); total != 73 {
		t.Fatalf("total allocated %d, want 73", total)
	}
	for i := 0; i < 10; i++ {
		if again := rule.Allocate(allocClasses, strata, 73); !reflect.DeepEqual(first, again) {
			t.Fatalf("allocation not deterministic:\n first %v\n again %v", first, again)
		}
	}
}
