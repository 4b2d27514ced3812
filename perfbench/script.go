package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"causet/internal/core"
)

// opKind names the public online call an op issues.
type opKind uint8

const (
	opSend opKind = iota
	opRecv
	opObserve
	opComplete
	opAddCondition
	opPoll
	numOpKinds
)

var opNames = [numOpKinds]string{"send", "recv", "observe", "complete", "add_condition", "poll"}

// op is one pre-generated call of an online script. For appends, proc is
// the appending process, peer and pos name the send a receive consumes, and
// iv is the interval (round) the event joins; decisive marks the last
// member of its round, the event whose append starts the detection-latency
// clock of every condition that round decides. Observe and Complete name
// interval iv; AddCondition registers condition iv.
type op struct {
	kind     opKind
	proc     uint8
	peer     uint8
	decisive bool
	pos      int32
	iv       int32
}

// strtab is a table of pre-formatted strings stored in one backing string,
// so a script of a million names costs one allocation and no per-name
// headers.
type strtab struct {
	buf string
	end []int32
}

func (t *strtab) at(i int32) string {
	lo := int32(0)
	if i > 0 {
		lo = t.end[i-1]
	}
	return t.buf[lo:t.end[i]]
}

// strtabBuilder accumulates a strtab.
type strtabBuilder struct {
	b   strings.Builder
	end []int32
}

func (tb *strtabBuilder) add(s string) int32 {
	tb.b.WriteString(s)
	tb.end = append(tb.end, int32(tb.b.Len()))
	return int32(len(tb.end) - 1)
}

func (tb *strtabBuilder) build() strtab { return strtab{buf: tb.b.String(), end: tb.end} }

// script is a complete online workload: the ops, the interval and condition
// names they use, and for each condition the round whose last event decides
// it. The first warmOps ops are the warm-up prefix that set-up runs; the
// timed window replays the rest.
type script struct {
	procs      int
	rounds     int
	ops        []op
	warmOps    int
	warmEvents int
	warmRounds int
	events     int
	intervals  strtab // interval i is round i
	condNames  strtab
	condSrc    strtab
	condFirst  []int32 // earliest round condition c references
	condRound  []int32 // round whose completion makes condition c ready
	condPrefix string  // condition c is named condPrefix + strconv.Itoa(c)
}

// condIndex recovers a condition's index from its name without allocating.
func (s *script) condIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, s.condPrefix) {
		return 0, false
	}
	n, err := strconv.Atoi(name[len(s.condPrefix):])
	if err != nil || n < 0 || n >= len(s.condRound) {
		return 0, false
	}
	return n, true
}

// scriptBuilder assembles a script round by round.
type scriptBuilder struct {
	s        *script
	ivPrefix string // interval r is named ivPrefix + strconv.Itoa(r)
	counts   []int32
	ivs      strtabBuilder
	names    strtabBuilder
	srcs     strtabBuilder
}

func newScriptBuilder(procs int, ivPrefix, condPrefix string) *scriptBuilder {
	return &scriptBuilder{
		s:        &script{procs: procs, condPrefix: condPrefix},
		ivPrefix: ivPrefix,
		counts:   make([]int32, procs),
	}
}

func (b *scriptBuilder) interval(r int) string { return b.ivPrefix + strconv.Itoa(r) }

// append adds an append on proc (a receive of peer's event at pos when
// recv), an Observe of it into round r, and a Poll; it returns the event's
// position on proc.
func (b *scriptBuilder) append(proc int, recv bool, peer int, pos int32, r int, decisive bool) int32 {
	b.counts[proc]++
	o := op{kind: opSend, proc: uint8(proc), iv: int32(r), decisive: decisive}
	if recv {
		o.kind, o.peer, o.pos = opRecv, uint8(peer), pos
	}
	b.s.ops = append(b.s.ops, o,
		op{kind: opObserve, iv: int32(r)},
		op{kind: opPoll})
	b.s.events++
	return b.counts[proc]
}

func (b *scriptBuilder) addCondition(src string, first, decidedBy int) {
	c := int32(b.names.add(b.s.condPrefix + strconv.Itoa(len(b.s.condRound))))
	b.srcs.add(src)
	b.s.condFirst = append(b.s.condFirst, int32(first))
	b.s.condRound = append(b.s.condRound, int32(decidedBy))
	b.s.ops = append(b.s.ops, op{kind: opAddCondition, iv: c})
}

func (b *scriptBuilder) complete(r int) {
	b.s.ops = append(b.s.ops, op{kind: opComplete, iv: int32(r)})
}

func (b *scriptBuilder) poll() { b.s.ops = append(b.s.ops, op{kind: opPoll}) }

func (b *scriptBuilder) openRound(r int) {
	if got := b.ivs.add(b.interval(r)); int(got) != r {
		panic("perfbench: rounds opened out of order")
	}
	b.s.rounds = r + 1
}

// markWarm ends the warm-up prefix at the current position.
func (b *scriptBuilder) markWarm() {
	b.s.warmOps = len(b.s.ops)
	b.s.warmEvents = b.s.events
	b.s.warmRounds = b.s.rounds
}

func (b *scriptBuilder) build() *script {
	b.s.intervals = b.ivs.build()
	b.s.condNames = b.names.build()
	b.s.condSrc = b.srcs.build()
	return b.s
}

// ringScript is ring-soak: procs processes, each round one causal lap of
// the ring (every event receives its predecessor's), observed into
// round-r, completed at the end of the lap, after which
// ordered-(r-1): R1(round-(r-1), round-r) is registered — ready at once.
// The seed fixes the order in which the lap visits the processes. The first
// warmRounds rounds are the warm-up prefix.
func ringScript(procs, warmRounds, rounds int, seed int64) *script {
	order := rand.New(rand.NewSource(seed)).Perm(procs)
	b := newScriptBuilder(procs, "round-", "ordered-")
	b.s.ops = make([]op, 0, rounds*(3*procs+3))
	var prevProc int
	var prevPos int32
	for r := 0; r < rounds; r++ {
		if r == warmRounds {
			b.markWarm()
		}
		b.openRound(r)
		for k, p := range order {
			first := r == 0 && k == 0
			prevPos = b.append(p, !first, prevProc, prevPos, r, k == procs-1)
			prevProc = p
		}
		b.complete(r)
		if r > 0 {
			b.addCondition(fmt.Sprintf("R1(%s, %s)", b.interval(r-1), b.interval(r)), r-1, r)
		}
		b.poll()
	}
	return b.build()
}

// gossipScript is gossip-wide: every round each of procs processes sends
// to a seeded random peer whose receive is appended at once; round g-r
// holds the round's 2·procs events. When round r opens, three or four
// compound conditions over g-r and g-(r+d), d ∈ [1,4], are registered
// ahead; between them they use all eight Table 1 relations. Conditions
// whose later interval would lie beyond the script are not registered, so
// every registered condition settles.
func gossipScript(procs, warmRounds, rounds int, seed int64) *script {
	rng := rand.New(rand.NewSource(seed))
	b := newScriptBuilder(procs, "g-", "c-")
	b.s.ops = make([]op, 0, rounds*(6*procs+6))
	rels := core.Relations()
	for r := 0; r < rounds; r++ {
		if r == warmRounds {
			b.markWarm()
		}
		b.openRound(r)
		for _, cond := range gossipConditions(rng, rels, r, rounds, b.interval) {
			b.addCondition(cond.src, r, cond.decidedBy)
		}
		for p := 0; p < procs; p++ {
			peer := rng.Intn(procs - 1)
			if peer >= p {
				peer++
			}
			pos := b.append(p, false, 0, 0, r, false)
			b.append(peer, true, p, pos, r, p == procs-1)
		}
		b.complete(r)
		b.poll()
	}
	return b.build()
}

// proxied wraps an interval operand in L() or U() one time in three.
func proxied(rng *rand.Rand, name string) string {
	switch rng.Intn(6) {
	case 0:
		return "L(" + name + ")"
	case 1:
		return "U(" + name + ")"
	}
	return name
}

type gossipCond struct {
	src       string
	decidedBy int
}

// gossipConditions draws one round's conditions: the eight relations in a
// seeded order, split into three groups (3+3+2) or four (2+2+2+2), each
// group joined by && or || into one condition over (g-r, g-(r+d)) with
// some atoms negated, some operands swapped, and some operands replaced by
// a proxy L(X) or U(X) (Definition 2: the per-node least or greatest
// events), whose cuts the monitor builds afresh at every evaluation.
func gossipConditions(rng *rand.Rand, rels []core.Relation, r, rounds int, name func(int) string) []gossipCond {
	order := rng.Perm(len(rels))
	sizes := []int{3, 3, 2}
	if rng.Intn(2) == 0 {
		sizes = []int{2, 2, 2, 2}
	}
	var out []gossipCond
	next := 0
	for _, n := range sizes {
		d := 1 + rng.Intn(4)
		x, y := name(r), name(r+d)
		var sb strings.Builder
		for k := 0; k < n; k++ {
			if k > 0 {
				if rng.Intn(2) == 0 {
					sb.WriteString(" && ")
				} else {
					sb.WriteString(" || ")
				}
			}
			if rng.Intn(4) == 0 {
				sb.WriteByte('!')
			}
			a, c := proxied(rng, x), proxied(rng, y)
			if rng.Intn(4) == 0 {
				a, c = c, a
			}
			fmt.Fprintf(&sb, "%s(%s, %s)", rels[order[next]], a, c)
			next++
		}
		if r+d < rounds {
			out = append(out, gossipCond{src: sb.String(), decidedBy: r + d})
		}
	}
	return out
}
