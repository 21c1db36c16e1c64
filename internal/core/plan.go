package core

import (
	"hash/fnv"
	"math/rand/v2"
	"strings"

	"sfi/internal/latch"
	"sfi/internal/stats"
)

// This file is the stratified refactor of the campaign sampling contract.
// The unit of planning is no longer one flat bit list but a SamplePlan: an
// ordered set of per-stratum sub-samples (unit × latch-class), each its own
// deterministic sequence, so any prefix of any stratum is reproducible
// independently of the others. A uniform campaign is the degenerate plan —
// one pooled stratum drawn by SampleCampaignBits, byte-identical to the
// pre-plan sampler — while a stratified campaign lets the Neyman allocator
// extend each stratum's prefix independently across allocation epochs.

// planStreamConst is the PCG stream constant for per-stratum sequences,
// distinct from SampleCampaignBits's 0x5f1 so a stratum sequence never
// collides with the pooled sample of the same seed.
const planStreamConst = 0x57a7a

// SamplePlan partitions a filtered latch population into sampling strata,
// each carrying its full population in a seeded permutation. It is a pure
// function of (database layout, seed, filter) — no map iteration or other
// process-local state — so independent processes (a coordinator planning
// from a census, workers executing against warmed machines) derive
// bit-for-bit identical plans.
type SamplePlan struct {
	Seed   uint64
	Strata []*PlanStratum
	byKey  map[string]*PlanStratum
}

// PlanStratum is one stratum of a sample plan: every latch bit of one
// unit × latch-class cross, in a deterministic Fisher–Yates permutation
// seeded from (plan seed, stratum key). A prefix of Bits is a uniform
// without-replacement sample of the stratum, and extending the prefix
// never re-orders what was already drawn — the property that lets an
// allocator grow per-stratum samples across epochs while every shard
// [Lo, Hi) of the sequence stays reproducible anywhere.
type PlanStratum struct {
	Key       string
	Unit      string
	LatchType latch.Type
	Bits      []int
}

// Population returns the stratum's census size.
func (s *PlanStratum) Population() int { return len(s.Bits) }

// StratumKey names the sampling stratum of a latch: "UNIT/latch-class".
// It is wire and journal surface (shard leases, allocation records,
// /v1/status, report rows), and the key of every cell of Report.ByStratum.
func StratumKey(unit string, t latch.Type) string {
	return unit + "/" + t.String()
}

// splitStratumKey is StratumKey's inverse: the unit and the latch type a key
// names (type 0 for a latch class it does not know).
func splitStratumKey(key string) (unit string, t latch.Type) {
	i := strings.LastIndexByte(key, '/')
	for _, lt := range latch.Types {
		if lt.String() == key[i+1:] {
			t = lt
		}
	}
	return key[:max(i, 0)], t
}

// stratumSeed derives a stratum's sequence seed: the campaign seed mixed
// with an FNV-1a hash of the stratum key through one splitmix64 round, so
// sibling strata get statistically independent permutations and a
// stratum's sequence is stable under changes to any other stratum.
func stratumSeed(seed uint64, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return splitmix64(seed ^ h.Sum64())
}

// BuildSamplePlan builds the stratified sample plan of a filtered latch
// population: one stratum per unit × latch-class cross, in first-appearance
// order over the database's (registration-ordered) groups, each stratum
// holding its full population in its seeded permutation.
func BuildSamplePlan(db *latch.DB, seed uint64, f latch.Filter) *SamplePlan {
	p := &SamplePlan{Seed: seed, byKey: make(map[string]*PlanStratum)}
	for _, g := range db.Groups() {
		if f != nil && !f(g) {
			continue
		}
		if g.Bits() == 0 {
			continue
		}
		key := StratumKey(g.Unit, g.Kind)
		s := p.byKey[key]
		if s == nil {
			s = &PlanStratum{Key: key, Unit: g.Unit, LatchType: g.Kind}
			p.byKey[key] = s
			p.Strata = append(p.Strata, s)
		}
		for b, n := g.Offset(), g.Bits(); b < g.Offset()+n; b++ {
			s.Bits = append(s.Bits, b)
		}
	}
	for _, s := range p.Strata {
		rng := rand.New(rand.NewPCG(stratumSeed(seed, s.Key), planStreamConst))
		rng.Shuffle(len(s.Bits), func(i, j int) { s.Bits[i], s.Bits[j] = s.Bits[j], s.Bits[i] })
	}
	return p
}

// Stratum returns the stratum with the given key, or nil.
func (p *SamplePlan) Stratum(key string) *PlanStratum { return p.byKey[key] }

// Keys returns the stratum keys in plan order.
func (p *SamplePlan) Keys() []string {
	out := make([]string, len(p.Strata))
	for i, s := range p.Strata {
		out[i] = s.Key
	}
	return out
}

// Populations maps stratum key → census size for every stratum.
func (p *SamplePlan) Populations() map[string]int {
	out := make(map[string]int, len(p.Strata))
	for _, s := range p.Strata {
		out[s.Key] = len(s.Bits)
	}
	return out
}

// TotalBits returns the plan's total population across strata.
func (p *SamplePlan) TotalBits() int {
	n := 0
	for _, s := range p.Strata {
		n += len(s.Bits)
	}
	return n
}

// PlanStratumShards splits one stratum's epoch draw — sequence indices
// [lo, lo+n) — into contiguous shards of at most shardSize injections,
// the stratified analogue of PlanShards: executing each shard with
// CampaignConfig.Stratum+Shard and merging the Reports in plan order
// reproduces the epoch's draw exactly.
func PlanStratumShards(lo, n, shardSize int) []ShardRange {
	out := PlanShards(n, shardSize)
	for i := range out {
		out[i].Lo += lo
		out[i].Hi += lo
	}
	return out
}

// ArmStop returns stop as a campaign under this allocation evaluates it:
// stratified allocation makes the per-stratum margins the stoppable target,
// so the rule's Strata gate is armed for the estimator, the stop decision
// and the final report evaluation alike. It is the one place the gate is
// set — the local executor and the distributed coordinator (before it
// derives its journal header and worker-facing spec) both go through it.
func (a AllocConfig) ArmStop(stop StopConfig) StopConfig {
	if a.Stratified() && stop.Enabled() {
		stop.Strata = true
	}
	return stop
}

// NextEpoch is the allocation-epoch decision of a stratified campaign — the
// one copy, shared by the local executor and the distributed coordinator.
// A flips-injection budget is spent in alloc's epochs of ceil(flips/epochs)
// injections (the last may be short); at each epoch boundary the Neyman
// allocator splits the epoch's budget across the plan's strata from their
// settled outcome counts (settled, keyed like Report.ByStratum), the
// sequence prefix each has already drawn, and the budget still remaining.
// It returns the per-stratum shares in plan order and the injections they
// allocate; allocated == 0 means the campaign is over — the budget is spent
// or every stratum's population is exhausted. A pure function: nothing but
// its arguments decides the result, which is what lets a coordinator
// restarted over its journal re-plan identically.
func (p *SamplePlan) NextEpoch(flips int, alloc AllocConfig, rule stats.StopRule,
	settled map[string]map[Outcome]int, drawn map[string]int, remaining int) (shares []stats.StratumShare, allocated int) {
	budget := min(remaining, (flips+alloc.epochs()-1)/alloc.epochs())
	if budget <= 0 {
		return nil, 0
	}
	states := make([]stats.StratumState, len(p.Strata))
	for i, s := range p.Strata {
		c := stratumFromRow(settled[s.Key])
		states[i] = stats.StratumState{
			Key: s.Key, Population: len(s.Bits), Drawn: drawn[s.Key], Total: c.Total, Counts: c.Counts,
		}
	}
	shares = rule.Allocate(outcomeNames(), states, budget)
	for _, sh := range shares {
		allocated += sh.Next
	}
	return shares, allocated
}
