// Package prove implements the static benign-injection prover: a
// per-checkpoint analysis over the frozen state.File registry, the
// machine's state at the checkpoint, and the golden run's TouchTrace that
// partitions the injectable (element, entry, bit) population into
// proven-benign and must-simulate classes before any trial runs.
//
// A bit is proven benign only when the analysis shows a flip of it leads to
// a µArch Match — the trial's state provably re-converges with the golden
// run inside the horizon AND the re-convergence beats every golden-side
// failure monitor (exception, locked-up, ITLB streak), exactly as the trial
// loop's tie-break would decide. Proofs of weaker facts ("the flip causes
// the same exception the golden run takes") are deliberately out of scope:
// the soundness oracle simulates sampled proven bits full-horizon and
// demands Match, so every rule must be a Match proof.
//
// Four rules, independently toggleable and named in the proof record:
//
//   - liveness: the golden trace shows the entry is overwritten before any
//     read (state.TouchTrace.ProvenDead — the exact predicate the trial
//     engine's closed-form classifier uses).
//   - idleness: the entry is gated by a declared valid bit that is 0 in the
//     checkpoint state and stays unwritten past the entry's overwrite
//     cycle, so pre-overwrite reads happened while the entry was
//     architecturally invalid and cannot influence behavior.
//   - masking: the flipped bit is outside the element's declared
//     consumed-bit mask, so no consumer ever observes it.
//   - constprop: the entry IS read before its in-horizon overwrite, but the
//     golden trace's value-aware observation set (state.TouchTrace.ObsPre,
//     fed by GetObs masks at audited predicate-only read sites) shows no
//     pre-overwrite read can notice the flipped bit, so the trial tracks
//     the golden run until the overwrite erases the corruption.
//
// Idleness and masking rest on semantic declarations (prove.Hints) supplied
// by the machine model, and constprop on the soundness of the audited GetObs
// observation masks; the declarations are contracts, and the campaign's
// cross-check oracle validates them empirically.
package prove

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"pipefault/internal/state"
)

// Rule is a bitmask of enabled (or, in a proof record, applied) rules.
type Rule uint8

// Prover rules.
const (
	RuleLiveness Rule = 1 << iota
	RuleIdle
	RuleMask
	RuleConstProp

	RuleAll       = RuleLiveness | RuleIdle | RuleMask | RuleConstProp
	RuleNone Rule = 0
)

var ruleNames = []struct {
	r    Rule
	name string
}{
	{RuleLiveness, "liveness"},
	{RuleIdle, "idle"},
	{RuleMask, "mask"},
	{RuleConstProp, "constprop"},
}

func (r Rule) String() string {
	if r == 0 {
		return "none"
	}
	s := ""
	for _, rn := range ruleNames {
		if r&rn.r != 0 {
			if s != "" {
				s += "+"
			}
			s += rn.name
		}
	}
	if rest := r &^ RuleAll; rest != 0 {
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("rule(%d)", uint8(rest))
	}
	return s
}

// Rules lists the individual rules in display order.
func Rules() []Rule { return []Rule{RuleLiveness, RuleIdle, RuleMask, RuleConstProp} }

// Gate declares that each entry i of a payload element is architecturally
// valid only while entry i of the named 1-bit Valid element is nonzero:
// while the gate is 0, the payload's contents cannot influence machine
// behavior, even if the model reads them speculatively.
type Gate struct {
	Valid string
}

// Hints carries the machine model's semantic declarations: which elements
// are valid-gated (by payload element name) and which elements have bits no
// consumer ever reads (consumed-bit mask by element name; a zero/absent
// mask means "all declared bits are consumed"). Declarations are trusted by
// the prover and validated empirically by the campaign's cross-check
// oracle.
type Hints struct {
	Gates map[string]Gate
	Masks map[string]uint64
}

// matchWins reports whether a state re-convergence at cycle matchAt would
// win the trial loop's classification tie-break against the golden
// continuation's first failure-monitor firing at failAt (0 = none): the
// monitors are considered first, so Match wins only by firing strictly
// earlier, and only within the horizon h.
func matchWins(matchAt, failAt, h uint64) bool {
	return matchAt != 0 && matchAt <= h && (failAt == 0 || failAt > matchAt)
}

// elemProof is the per-element partition: dead[i] has a bit set for every
// proven-benign bit of entry i, and cum[i] counts the must-simulate bits in
// entries [0, i) for the in-element draw.
type elemProof struct {
	e    *state.Elem
	mask uint64 // all declared bits of one entry
	dead []uint64
	rule []Rule // rule that proved each entry (entry-granular rules only)
	cum  []uint64
}

// Proof is the partition of one checkpoint's injectable population.
type Proof struct {
	rules Rule
	h     uint64

	elems  map[*state.Elem]*elemProof
	all    population
	latch  population
	perCat map[state.Category]map[Rule]uint64 // proven bits by (category, rule)
}

// population is the draw index over one injectable population's
// must-simulate bits.
type population struct {
	elems   []*elemProof
	cum     []uint64 // cum[i] = must-simulate bits in elems[:i]; len+1 entries
	total   uint64   // total injectable bits
	mustSim uint64
}

// Compute partitions the injectable population of f. The file must be
// positioned at the checkpoint state (the idleness rule reads gate values
// from it), trace must be the golden continuation's touch trace, failAt the
// first cycle any of its failure monitors fires (0 = never), and h the trial
// horizon in cycles. Only the rules present in the rules mask are applied.
func Compute(f *state.File, trace *state.TouchTrace, failAt, h uint64, hints Hints, rules Rule) *Proof {
	p := &Proof{
		rules:  rules,
		h:      h,
		elems:  make(map[*state.Elem]*elemProof),
		perCat: make(map[state.Category]map[Rule]uint64),
	}
	for _, e := range f.Elems() {
		if !e.Injectable() {
			continue
		}
		ep := p.analyze(e, f, trace, failAt, hints)
		p.elems[e] = ep
		p.all.add(ep)
		if e.Kind() == state.KindLatch {
			p.latch.add(ep)
		}
	}
	return p
}

func (pop *population) add(ep *elemProof) {
	pop.elems = append(pop.elems, ep)
	if pop.cum == nil {
		pop.cum = []uint64{0}
	}
	total := uint64(ep.e.Bits())
	must := total - ep.provenBits()
	pop.cum = append(pop.cum, pop.cum[len(pop.cum)-1]+must)
	pop.total += total
	pop.mustSim += must
}

func (ep *elemProof) provenBits() uint64 {
	var n uint64
	for _, m := range ep.dead {
		n += uint64(bits.OnesCount64(m))
	}
	return n
}

// analyze applies the rule set to one element, producing its partition and
// folding per-(category, rule) coverage into the proof record.
func (p *Proof) analyze(e *state.Elem, f *state.File, trace *state.TouchTrace, failAt uint64, hints Hints) *elemProof {
	width := e.Width()
	mask := ^uint64(0)
	if width < 64 {
		mask = uint64(1)<<uint(width) - 1
	}
	ep := &elemProof{
		e:    e,
		mask: mask,
		dead: make([]uint64, e.Entries()),
		rule: make([]Rule, e.Entries()),
		cum:  make([]uint64, e.Entries()+1),
	}
	var gate *state.Elem
	if p.rules&RuleIdle != 0 {
		if g, ok := hints.Gates[e.Name()]; ok {
			gate = f.Elem(g.Valid)
			if gate == nil || gate.Entries() != e.Entries() {
				panic(fmt.Sprintf("prove: gate %q for %q missing or entry-count mismatch", g.Valid, e.Name()))
			}
		}
	}
	deadBits := p.rules&RuleMask != 0
	var consumed uint64
	if deadBits {
		if cm, ok := hints.Masks[e.Name()]; ok && cm&mask != mask {
			consumed = cm & mask
		} else {
			deadBits = false
		}
	}
	for i := 0; i < e.Entries(); i++ {
		key := e.EntryIndex(i)
		matchAt, dead := trace.ProvenDead(key, p.h)
		// Every rule shares the re-convergence skeleton: the entry must be
		// overwritten inside the horizon and the overwrite must win the
		// classification tie-break. The rules differ only in how
		// "indistinguishable from golden until the overwrite" is proven.
		converges := matchWins(matchAt, failAt, p.h)
		switch {
		case p.rules&RuleLiveness != 0 && dead && converges:
			ep.dead[i] = mask
			ep.rule[i] = RuleLiveness
			p.record(e.Category(), RuleLiveness, uint64(bits.OnesCount64(mask)))
		case gate != nil && converges && gate.Get(i) == 0 && idleThrough(trace, gate.EntryIndex(i), matchAt):
			ep.dead[i] = mask
			ep.rule[i] = RuleIdle
			p.record(e.Category(), RuleIdle, uint64(bits.OnesCount64(mask)))
		default:
			// The bit-granular rules compose: each contributes the bits it
			// alone proves, and an entry may carry both rule tags.
			//
			// constprop: every behavioral read of the entry before its
			// in-horizon overwrite observed only ObsPre's bits (value-aware
			// observation masks at audited predicate-only read sites, the
			// full row everywhere else). A flip of any other bit leaves
			// every pre-overwrite read's outcome unchanged, so the trial
			// tracks the golden run bit-for-bit until the overwrite erases
			// the corruption — Match at matchAt, no simulation needed.
			if p.rules&RuleConstProp != 0 && converges {
				if cp := mask &^ trace.ObsPre[key]; cp != 0 {
					ep.dead[i] = cp
					ep.rule[i] = RuleConstProp
					p.record(e.Category(), RuleConstProp, uint64(bits.OnesCount64(cp)))
				}
			}
			if deadBits && converges {
				if extra := mask &^ consumed &^ ep.dead[i]; extra != 0 {
					ep.dead[i] |= extra
					ep.rule[i] |= RuleMask
					p.record(e.Category(), RuleMask, uint64(bits.OnesCount64(extra)))
				}
			}
		}
		ep.cum[i+1] = ep.cum[i] + uint64(width) - uint64(bits.OnesCount64(ep.dead[i]))
	}
	return ep
}

// idleThrough reports whether a gate entry that is 0 at the checkpoint
// provably stays 0 through cycle matchAt: the golden run's first write to
// it (which is also the first cycle it could become nonzero) lands strictly
// after the payload's overwrite, or never happens.
func idleThrough(trace *state.TouchTrace, gateKey, matchAt uint64) bool {
	gw := trace.FirstSet[gateKey]
	return gw == 0 || gw > matchAt
}

func (p *Proof) record(cat state.Category, r Rule, n uint64) {
	m := p.perCat[cat]
	if m == nil {
		m = make(map[Rule]uint64)
		p.perCat[cat] = m
	}
	m[r] += n
}

// ProvenBits returns the proven-benign bit count of the population
// (optionally restricted to latches), and TotalBits its full size.
func (p *Proof) ProvenBits(latchOnly bool) uint64 {
	if latchOnly {
		return p.latch.total - p.latch.mustSim
	}
	return p.all.total - p.all.mustSim
}

// TotalBits returns the injectable-bit count of the population.
func (p *Proof) TotalBits(latchOnly bool) uint64 {
	if latchOnly {
		return p.latch.total
	}
	return p.all.total
}

// Proven reports whether the referenced bit is proven benign, and under
// which rule.
func (p *Proof) Proven(b state.BitRef) (Rule, bool) {
	ep := p.elems[b.Elem]
	if ep == nil {
		return 0, false
	}
	if ep.dead[b.Entry]>>uint(b.Bit)&1 == 0 {
		return 0, false
	}
	return ep.rule[b.Entry], true
}

// RandomBit draws a uniformly random must-simulate bit, consuming exactly
// one rng.Int63n — the same RNG shape as state.File.RandomBit, so the two
// draws are interchangeable in prefix-replay fast-forwarding. If every bit
// of the population is proven, it falls back to the full-population draw
// (the proven stratum then carries all the weight, so the trial's result
// never reaches a reported rate).
func (p *Proof) RandomBit(rng *rand.Rand, latchOnly bool) state.BitRef {
	pop := &p.all
	if latchOnly {
		pop = &p.latch
	}
	if pop.mustSim == 0 {
		return p.fullDraw(rng, latchOnly, pop)
	}
	n := uint64(rng.Int63n(int64(pop.mustSim)))
	idx := sort.Search(len(pop.elems), func(i int) bool {
		return pop.cum[i+1] > n
	})
	ep := pop.elems[idx]
	off := n - pop.cum[idx]
	entry := sort.Search(len(ep.cum)-1, func(i int) bool {
		return ep.cum[i+1] > off
	})
	rank := int(off - ep.cum[entry])
	live := ep.mask &^ ep.dead[entry]
	// Select the rank-th live (must-simulate) bit of the entry.
	for skip := 0; skip < rank; skip++ {
		live &= live - 1
	}
	return state.BitRef{Elem: ep.e, Entry: entry, Bit: bits.TrailingZeros64(live)}
}

// fullDraw reproduces state.File.RandomBit's population layout over the
// proof's element list, keeping the RNG consumption identical.
func (p *Proof) fullDraw(rng *rand.Rand, latchOnly bool, pop *population) state.BitRef {
	if pop.total == 0 {
		panic("prove: no injectable bits")
	}
	n := uint64(rng.Int63n(int64(pop.total)))
	var cum uint64
	for _, ep := range pop.elems {
		next := cum + uint64(ep.e.Bits())
		if next > n {
			off := n - cum
			return state.BitRef{Elem: ep.e, Entry: int(off) / ep.e.Width(), Bit: int(off) % ep.e.Width()}
		}
		cum = next
	}
	panic("prove: draw out of range")
}

// ProvenSample draws a uniformly random proven-benign bit for the
// cross-check oracle, or ok=false when nothing is proven in the population.
// It uses its own rng and never perturbs the trial stream.
func (p *Proof) ProvenSample(rng *rand.Rand, latchOnly bool) (state.BitRef, bool) {
	pop := &p.all
	if latchOnly {
		pop = &p.latch
	}
	proven := pop.total - pop.mustSim
	if proven == 0 {
		return state.BitRef{}, false
	}
	n := uint64(rng.Int63n(int64(proven)))
	for _, ep := range pop.elems {
		for i, m := range ep.dead {
			c := uint64(bits.OnesCount64(m))
			if c == 0 {
				continue
			}
			if n < c {
				for ; n > 0; n-- {
					m &= m - 1
				}
				return state.BitRef{Elem: ep.e, Entry: i, Bit: bits.TrailingZeros64(m)}, true
			}
			n -= c
		}
	}
	panic("prove: proven sample out of range")
}

// CatRule is one row of the coverage report: proven bits of one category
// under one rule.
type CatRule struct {
	Category state.Category
	Rule     Rule
	Proven   uint64
}

// MarshalJSON renders the row with symbolic names — coverage dumps are
// read by humans and CI diff tools, never decoded back.
func (cr CatRule) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Category string `json:"category"`
		Rule     string `json:"rule"`
		Proven   uint64 `json:"proven_bits"`
	}{cr.Category.String(), cr.Rule.String(), cr.Proven})
}

// Coverage returns the per-(category, rule) proven-bit counts in
// deterministic (category, rule) order.
func (p *Proof) Coverage() []CatRule {
	var out []CatRule
	for _, cat := range state.Categories() {
		m := p.perCat[cat]
		if m == nil {
			continue
		}
		for _, r := range Rules() {
			if n := m[r]; n > 0 {
				out = append(out, CatRule{Category: cat, Rule: r, Proven: n})
			}
		}
	}
	return out
}
