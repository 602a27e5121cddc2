package usagetrace

import (
	"math/bits"

	"dcg/internal/cpu"
)

// SchedHorizon is the DCG controller's schedule-ring depth in cycles
// (internal/gating keys its rings to this). The packed builder mirrors
// that ring at decode time, so the constant lives here — the lower layer
// — and gating aliases it.
const SchedHorizon = 8192

// busHistMax is the last bucket of the bus-schedule histogram: schedule
// counts >= busHistMax share one overflow bucket, which makes
// BusSchedCappedSum exact for any cap <= busHistMax (every realistic
// issue width) and detectably inexact beyond it.
const busHistMax = 64

// Packed is the bit-packed columnar view of a decoded trace: one uint64
// word per 64 cycles per boolean signal (bit c%64 of word c/64 is cycle
// c), built cycle by cycle in the load walk alongside the scalar
// columns (packer). Two families of data live here:
//
//   - Usage planes — FU-pool-busy, D-port-use, latch-stage-non-zero,
//     issue-non-empty, commit-non-empty — the threshold form of the raw
//     usage columns. They are the substrate word-at-a-time gating
//     kernels operate on (and what future multi-stage schemes in the
//     LECTOR family would AND against their own activity masks).
//
//   - A DCG schedule mirror — the walk replays every issue event
//     through a ring identical to the gating controller's
//     (write-at-issue, read-and-clear at the scheduled cycle) and
//     records, per cycle, whether actual usage exceeded the schedule
//     (the scheme's gate-violation predicate) plus the order-free
//     aggregates (enabled-instance sums, lead violations, a
//     bus-schedule histogram) a power.Tally needs. One mirror serves
//     every DCG ablation: the controller's schedule writes do not
//     depend on which structure classes it gates.
//
// Tail-word discipline: bits at positions >= Cycles() in the last word
// are zero by construction, and every reader here only ORs and
// popcounts planes — nothing complements a plane — so kernels need no
// explicit tail mask. Anything that does complement a plane must mask
// the tail itself.
//
// A Packed is immutable after construction and safe for concurrent use.
type Packed struct {
	cycles uint64
	words  int
	d      *Decoded

	// Usage planes.
	fuBusy   [cpu.NumFUTypes][]uint64
	dportUse []uint64
	latchNZ  [][]uint64 // per back-end latch stage
	issueNE  []uint64
	commitNE []uint64

	// Latchvalue-channel planes and aggregates: per-stage value-change
	// non-zero bits and the summed value-change slot count. nil/zero when
	// the trace does not carry the latchvalue channel.
	latchValNZ         [][]uint64
	backLatchNewValSum int64

	// Schedule-violation planes: cycles where actual usage exceeded the
	// mirrored DCG schedule (gate violations for the gated classes).
	unitOverSched  []uint64
	dportOverSched []uint64
	busOverSched   []uint64

	// Order-free aggregates of the mirrored schedule.
	schedUnitOn  [cpu.NumFUTypes]int64
	dportSchedOn int64
	busSchedHist [busHistMax + 1]int64
	backLatchSum int64
	fetchSum     int64
	leadViol     uint64

	// Column maxima, so the lazy over-capacity planes can prove "no
	// violation possible" without a pass: on a trace captured by the
	// core these always hold, and the O(cycles) plane scans never run.
	busyOr   [cpu.NumFUTypes]uint32
	maxDPort int32
	maxBus   int32
	maxLatch int32
}

// schedMirror replicates the DCG controller's schedule rings
// (gating.DCG.fuSched/dportSched/busSched) cycle for cycle. The FU ring
// writes are clamped to one full revolution — OR into a slot is
// idempotent, so an event latency beyond SchedHorizon touches exactly
// the same slot set either way — while the count rings take one
// increment per event and need no clamp.
type schedMirror struct {
	fu    [cpu.NumFUTypes][SchedHorizon]uint32
	dport [SchedHorizon]int64
	bus   [SchedHorizon]int64
}

// onIssue mirrors gating.DCG.OnIssue for the event e selected at cycle
// c, including its per-aspect lead accounting: an event late on its FU
// start, D-port cycle, and result-bus cycle counts three violations,
// exactly as the controller does.
func (m *schedMirror) onIssue(e *event, c uint64, lead *uint64) {
	if e.flags&flagHasFU != 0 {
		start := c + uint64(e.fuStart)
		if start <= c {
			*lead++
		}
		lat := uint64(e.fuLat)
		if lat > SchedHorizon {
			lat = SchedHorizon
		}
		ring := &m.fu[e.flags>>fuTypeShift]
		for x := start; x < start+lat; x++ {
			ring[x%SchedHorizon] |= 1 << e.fuIdx
		}
	}
	if e.flags&(flagIsLoad|flagIsStore) != 0 {
		at := c + uint64(e.dport)
		if at <= c {
			*lead++
		}
		m.dport[at%SchedHorizon]++
	}
	if e.flags&flagWritesReg != 0 {
		at := c + uint64(e.bus)
		if at <= c {
			*lead++
		}
		m.bus[at%SchedHorizon]++
	}
}

// packer builds a Packed one cycle at a time as the load walk parses
// each record: the cycle's issue events go through the schedule mirror
// first, then its usage sets the plane bits and aggregates — the order
// the core delivers them in.
type packer struct {
	p      *Packed
	m      schedMirror
	planes []*[]uint64
}

// newPacker starts the planes of a trace with the given stage count,
// sized for cyclesHint cycles.
func newPacker(stages int, latchValue bool, cyclesHint int) *packer {
	p := &Packed{latchNZ: make([][]uint64, stages)}
	if latchValue {
		p.latchValNZ = make([][]uint64, stages)
	}
	k := &packer{p: p, planes: p.planes()}
	words := (cyclesHint + 63) / 64
	for _, pl := range k.planes {
		*pl = make([]uint64, 0, words)
	}
	return k
}

// planes returns every bit-plane of p, for growing and sizing them
// together.
func (p *Packed) planes() []*[]uint64 {
	ps := []*[]uint64{&p.dportUse, &p.issueNE, &p.commitNE,
		&p.unitOverSched, &p.dportOverSched, &p.busOverSched}
	for t := range p.fuBusy {
		ps = append(ps, &p.fuBusy[t])
	}
	for s := range p.latchNZ {
		ps = append(ps, &p.latchNZ[s])
	}
	for s := range p.latchValNZ {
		ps = append(ps, &p.latchValNZ[s])
	}
	return ps
}

// addCycle adds cycle c: its issue events, its usage record and its
// per-stage latch (and latchvalue) counts.
func (k *packer) addCycle(c uint64, evs []event, rec *record, latch, newVal []int32) {
	p, m := k.p, &k.m
	if c&63 == 0 {
		for _, pl := range k.planes {
			*pl = append(*pl, 0)
		}
	}
	for i := range evs {
		m.onIssue(&evs[i], c, &p.leadViol)
	}

	idx := c % SchedHorizon
	w, bit := c>>6, uint64(1)<<(c&63)

	dp := m.dport[idx]
	m.dport[idx] = 0
	bs := m.bus[idx]
	m.bus[idx] = 0
	p.dportSchedOn += dp
	if bs < busHistMax {
		p.busSchedHist[bs]++
	} else {
		p.busSchedHist[busHistMax]++
	}

	busy := [cpu.NumFUTypes]uint32{rec.intALU, rec.intMult, rec.fpALU, rec.fpMult}
	unitOver := false
	for t := 0; t < int(cpu.NumFUTypes); t++ {
		sched := m.fu[t][idx]
		m.fu[t][idx] = 0
		p.schedUnitOn[t] += int64(bits.OnesCount32(sched))
		p.busyOr[t] |= busy[t]
		if busy[t] != 0 {
			p.fuBusy[t][w] |= bit
		}
		if busy[t]&^sched != 0 {
			unitOver = true
		}
	}
	if unitOver {
		p.unitOverSched[w] |= bit
	}

	dport := rec.dport
	if dport > 0 {
		p.dportUse[w] |= bit
	}
	if dport > p.maxDPort {
		p.maxDPort = dport
	}
	if int64(dport) > dp {
		p.dportOverSched[w] |= bit
	}

	rb := rec.resultBus
	if rb > p.maxBus {
		p.maxBus = rb
	}
	if int64(rb) > bs {
		p.busOverSched[w] |= bit
	}

	if rec.issue != 0 {
		p.issueNE[w] |= bit
	}
	if rec.commit != 0 {
		p.commitNE[w] |= bit
	}

	for s, v := range latch {
		if v != 0 {
			p.latchNZ[s][w] |= bit
		}
		if v > p.maxLatch {
			p.maxLatch = v
		}
		p.backLatchSum += int64(v)
	}
	for s, v := range newVal {
		if v != 0 {
			p.latchValNZ[s][w] |= bit
		}
		p.backLatchNewValSum += int64(v)
	}
	p.fetchSum += int64(rec.fetch)
}

// finish completes the Packed view of the walked trace d.
func (k *packer) finish(d *Decoded) *Packed {
	p := k.p
	p.cycles = d.cycles
	p.words = int((d.cycles + 63) / 64)
	p.d = d
	return p
}

// Cycles returns the packed cycle count.
func (p *Packed) Cycles() uint64 { return p.cycles }

// Words returns the per-plane word count, (Cycles+63)/64.
func (p *Packed) Words() int { return p.words }

// FUBusyPlane returns the plane with bit c set when FU pool t had any
// busy unit at cycle c.
func (p *Packed) FUBusyPlane(t cpu.FUType) []uint64 { return p.fuBusy[t] }

// DPortUsePlane returns the plane with bit c set when any D-cache port
// was used at cycle c.
func (p *Packed) DPortUsePlane() []uint64 { return p.dportUse }

// LatchNonZeroPlane returns the plane with bit c set when back-end latch
// stage s carried any instruction at cycle c.
func (p *Packed) LatchNonZeroPlane(s int) []uint64 { return p.latchNZ[s] }

// IssueNonEmptyPlane returns the plane with bit c set when any
// instruction issued at cycle c.
func (p *Packed) IssueNonEmptyPlane() []uint64 { return p.issueNE }

// CommitNonEmptyPlane returns the plane with bit c set when any
// instruction committed at cycle c.
func (p *Packed) CommitNonEmptyPlane() []uint64 { return p.commitNE }

// UnitSchedViolationPlane returns the plane with bit c set when some FU
// pool's busy mask escaped the mirrored schedule mask at cycle c — the
// gate-violation predicate for a scheme gating execution units.
func (p *Packed) UnitSchedViolationPlane() []uint64 { return p.unitOverSched }

// DPortSchedViolationPlane is the same predicate for the D-cache
// wordline decoders: ports used beyond the schedule count.
func (p *Packed) DPortSchedViolationPlane() []uint64 { return p.dportOverSched }

// BusSchedViolationPlane is the same predicate for the result-bus
// drivers, against the raw (uncapped) schedule count.
func (p *Packed) BusSchedViolationPlane() []uint64 { return p.busOverSched }

// UnitSchedOnSum returns the summed popcount of pool t's mirrored
// schedule masks over all cycles — a unit-gating scheme's enabled
// unit-cycles.
func (p *Packed) UnitSchedOnSum(t cpu.FUType) int64 { return p.schedUnitOn[t] }

// DPortSchedSum returns the summed D-port schedule counts (a
// dcache-gating scheme's raw enabled port-cycles; may exceed
// ports x cycles, exactly as the controller reports it).
func (p *Packed) DPortSchedSum() int64 { return p.dportSchedOn }

// BusSchedCappedSum returns the sum over cycles of min(schedule count,
// cap) — a bus-gating scheme's enabled driver-cycles under issue width
// cap. The histogram's overflow bucket lumps counts >= 64 together, so
// the sum is exact only for cap <= 64 (or when no cycle overflowed);
// otherwise ok is false and the caller must fall back to scalar replay.
func (p *Packed) BusSchedCappedSum(limit int) (sum int64, ok bool) {
	if limit > busHistMax && p.busSchedHist[busHistMax] != 0 {
		return 0, false
	}
	for b, cnt := range p.busSchedHist {
		if cnt == 0 {
			continue
		}
		on := int64(b)
		if on > int64(limit) {
			on = int64(limit)
		}
		sum += on * cnt
	}
	return sum, true
}

// BackLatchSum returns the summed back-end latch occupancy over all
// stages and cycles — a latch-gating scheme's enabled slot-cycles.
func (p *Packed) BackLatchSum() int64 { return p.backLatchSum }

// HasLatchValue reports whether the trace carried the latchvalue channel,
// i.e. whether the latch value-change planes and sums below are populated.
func (p *Packed) HasLatchValue() bool { return p.latchValNZ != nil }

// LatchValueChangePlane returns the plane with bit c set when back-end
// latch stage s carried any value-changing instruction at cycle c, or nil
// when the trace has no latchvalue channel.
func (p *Packed) LatchValueChangePlane(s int) []uint64 {
	if p.latchValNZ == nil {
		return nil
	}
	return p.latchValNZ[s]
}

// BackLatchNewValSum returns the summed value-change slot count over all
// stages and cycles — a value-dependent latch-gating scheme's enabled
// slot-cycles. ok is false when the trace has no latchvalue channel.
func (p *Packed) BackLatchNewValSum() (sum int64, ok bool) {
	if p.latchValNZ == nil {
		return 0, false
	}
	return p.backLatchNewValSum, true
}

// LeadViolations returns the mirrored controller's advance-knowledge
// violations (events arriving without >= 1 cycle of lead), with the
// controller's per-aspect accounting.
func (p *Packed) LeadViolations() uint64 { return p.leadViol }

// FrontSlotsSum returns the oracle scheme's enabled front-latch
// slot-cycles in closed form: stage s of a depth-stage front end carries
// the fetch flow delayed s cycles, so the fetch count of cycle j is
// counted min(depth, n-j) times — depth times, minus the tail cycles
// that fall off the end of the run.
func (p *Packed) FrontSlotsSum(depth int) int64 {
	if depth <= 0 {
		return 0
	}
	sum := int64(depth) * p.fetchSum
	n := p.cycles
	for k := uint64(1); k < uint64(depth) && k <= n; k++ {
		sum -= int64(uint64(depth)-k) * int64(p.d.fetchN[n-k])
	}
	return sum
}

// IssueQueueFracSum returns the summed per-cycle issue-queue enabled
// fraction for an occupancy-gating (oracle) scheme: occupancy/window,
// accumulated in cycle order with exactly the float operations the
// scalar accountant performs, so the result is bit-identical to a
// sequential replay's. window <= 0 means the queue is never gated and
// the fraction is 1.0 every cycle.
func (p *Packed) IssueQueueFracSum(window int) float64 {
	if window <= 0 {
		return float64(p.cycles)
	}
	w := float64(window)
	var sum float64
	for _, occ := range p.d.occ {
		sum += float64(occ) / w
	}
	return sum
}

// maskN mirrors gating's unit-mask construction: n low bits set,
// saturating at the 32-bit mask width.
func maskN(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(n)) - 1
}

// OverFullUnits returns the plane of cycles where some FU pool's busy
// mask escaped even the all-enabled mask for the given pool sizes (the
// gate-violation predicate for an ungated pool), or nil when the
// recorded busy-mask OR proves no such cycle exists — the invariant on
// any trace the core captured, making this free in the common case.
func (p *Packed) OverFullUnits(counts [cpu.NumFUTypes]int) []uint64 {
	possible := false
	for t := 0; t < int(cpu.NumFUTypes); t++ {
		if p.busyOr[t]&^maskN(counts[t]) != 0 {
			possible = true
		}
	}
	if !possible {
		return nil
	}
	plane := make([]uint64, p.words)
	d := p.d
	for c := uint64(0); c < p.cycles; c++ {
		if d.intALU[c]&^maskN(counts[cpu.FUIntALU]) != 0 ||
			d.intMult[c]&^maskN(counts[cpu.FUIntMult]) != 0 ||
			d.fpALU[c]&^maskN(counts[cpu.FUFPALU]) != 0 ||
			d.fpMult[c]&^maskN(counts[cpu.FUFPMult]) != 0 {
			plane[c>>6] |= 1 << (c & 63)
		}
	}
	return plane
}

// OverFullDPorts returns the plane of cycles using more D-cache ports
// than the machine has (violation predicate for ungated decoders), or
// nil when the column maximum proves none exist.
func (p *Packed) OverFullDPorts(ports int) []uint64 {
	if int(p.maxDPort) <= ports {
		return nil
	}
	plane := make([]uint64, p.words)
	for c, v := range p.d.dport {
		if int(v) > ports {
			plane[c>>6] |= 1 << (uint64(c) & 63)
		}
	}
	return plane
}

// OverFullBus returns the plane of cycles driving more result buses than
// the issue width, or nil when the column maximum proves none exist.
func (p *Packed) OverFullBus(width int) []uint64 {
	if int(p.maxBus) <= width {
		return nil
	}
	plane := make([]uint64, p.words)
	for c, v := range p.d.resultBus {
		if int(v) > width {
			plane[c>>6] |= 1 << (uint64(c) & 63)
		}
	}
	return plane
}

// OverFullLatch returns the plane of cycles where some back-end latch
// stage carried more instructions than the issue width, or nil when the
// recorded maximum proves none exist.
func (p *Packed) OverFullLatch(width int) []uint64 {
	if int(p.maxLatch) <= width {
		return nil
	}
	plane := make([]uint64, p.words)
	d := p.d
	for c := uint64(0); c < p.cycles; c++ {
		base := int(c) * d.stages
		for s := 0; s < d.stages; s++ {
			if int(d.backLatch[base+s]) > width {
				plane[c>>6] |= 1 << (c & 63)
				break
			}
		}
	}
	return plane
}

// ViolationCycles ORs the given planes word-at-a-time and popcounts the
// union: the number of cycles on which at least one selected violation
// predicate fired. This matches the scalar accountant exactly, which
// counts at most one gate violation per cycle however many structures
// misfired. nil planes (the "no violation possible" result of the lazy
// builders) are skipped.
func (p *Packed) ViolationCycles(planes ...[]uint64) uint64 {
	if len(planes) == 0 {
		return 0
	}
	var total uint64
	for w := 0; w < p.words; w++ {
		union := uint64(0)
		for _, pl := range planes {
			if pl != nil {
				union |= pl[w]
			}
		}
		total += uint64(bits.OnesCount64(union))
	}
	return total
}
