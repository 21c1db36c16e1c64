package core

import (
	"fmt"
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

// Epochs is a stratified campaign's epoch ledger, the one copy both drivers
// keep: Next decides an epoch over settled counts, Apply advances the ledger
// past one. The exported fields are read-only.
type Epochs struct {
	Plan  *SamplePlan
	Drawn map[string]int // per-stratum sequence prefix already planned
	Left  int            // budget not yet allocated
	N     int            // epochs applied
	size  int            // an epoch's budget: ceil(flips/epochs)
	rule  stats.StopRule
}

// Epoch is one allocation decision: its ordinal, the injections it
// allocates and their per-stratum shares, in plan order.
type Epoch struct {
	N      int                  `json:"epoch"`
	Budget int                  `json:"budget"`
	Shares []stats.StratumShare `json:"shares"`
}

// NewEpochs plans a stratified campaign over db's latches; no epoch is
// decided yet.
func NewEpochs(db *latch.DB, cfg CampaignConfig) (*Epochs, error) {
	return newEpochs(BuildSamplePlan(db, cfg.Seed, cfg.Filter), cfg)
}

// newEpochs is NewEpochs over a plan already built.
func newEpochs(plan *SamplePlan, cfg CampaignConfig) (*Epochs, error) {
	if len(plan.Strata) == 0 {
		return nil, fmt.Errorf("core: stratified campaign over an empty population")
	}
	epochs := cfg.Alloc.Epochs
	if epochs <= 0 {
		epochs = DefaultAllocEpochs
	}
	return &Epochs{Plan: plan, Drawn: make(map[string]int, len(plan.Strata)), Left: cfg.Flips,
		size: (cfg.Flips + epochs - 1) / epochs, rule: cfg.Stop.Rule()}, nil
}

// Next is the Neyman allocator's split of the next epoch's budget across the
// strata, from their settled cells of the cross and the prefix each has
// drawn; nil once the budget is spent or every unconverged stratum is
// exhausted. A pure function of the ledger and settled, so a coordinator
// restarted over its journal re-plans identically.
func (e *Epochs) Next(settled *Report) *Epoch {
	states := make([]stats.StratumState, len(e.Plan.Strata))
	for i, s := range e.Plan.Strata {
		c := stratumFromRow(settled.ByStratum[s.Key])
		states[i] = stats.StratumState{
			Key: s.Key, Population: len(s.Bits), Drawn: e.Drawn[s.Key], Total: c.Total, Counts: c.Counts,
		}
	}
	ep := &Epoch{N: e.N, Shares: e.rule.Allocate(outcomeNames(), states, min(e.Left, e.size))}
	for _, sh := range ep.Shares {
		ep.Budget += sh.Next
	}
	if ep.Budget == 0 {
		return nil
	}
	return ep
}

// Apply advances the ledger past an epoch, decided by Next or replayed: each
// stratum's drawn prefix grows by its share.
func (e *Epochs) Apply(ep Epoch) {
	for _, sh := range ep.Shares {
		e.Drawn[sh.Stratum] += sh.Next
	}
	e.Left -= ep.Budget
	e.N++
}
