package interval

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"causet/internal/poset"
	"causet/internal/poset/posettest"
	"causet/internal/vclock"
)

func fixture(t *testing.T) *poset.Execution {
	t.Helper()
	b := poset.NewBuilder(3)
	a1 := b.Append(0)
	b1 := b.Append(1)
	if err := b.Message(a1, b1); err != nil {
		t.Fatal(err)
	}
	b2 := b.Append(1)
	b.Append(2)
	c2 := b.Append(2)
	if err := b.Message(b2, c2); err != nil {
		t.Fatal(err)
	}
	b.Append(0)
	return b.MustBuild()
}

func TestNewValidation(t *testing.T) {
	ex := fixture(t)
	if _, err := New(ex, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: err = %v, want ErrEmpty", err)
	}
	if _, err := New(ex, []poset.EventID{ex.Bottom(0)}); !errors.Is(err, ErrNotReal) {
		t.Errorf("bottom member: err = %v, want ErrNotReal", err)
	}
	if _, err := New(ex, []poset.EventID{ex.Top(2)}); !errors.Is(err, ErrNotReal) {
		t.Errorf("top member: err = %v, want ErrNotReal", err)
	}
	if _, err := New(ex, []poset.EventID{{Proc: 0, Pos: 99}}); !errors.Is(err, ErrNotReal) {
		t.Errorf("invalid member: err = %v, want ErrNotReal", err)
	}
}

func TestDedupAndOrder(t *testing.T) {
	ex := fixture(t)
	iv := MustNew(ex, []poset.EventID{
		{Proc: 2, Pos: 2}, {Proc: 0, Pos: 1}, {Proc: 2, Pos: 2}, {Proc: 0, Pos: 1}, {Proc: 1, Pos: 2},
	})
	want := []poset.EventID{{Proc: 0, Pos: 1}, {Proc: 1, Pos: 2}, {Proc: 2, Pos: 2}}
	got := iv.Events()
	if len(got) != len(want) {
		t.Fatalf("Events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Events[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if iv.Size() != 3 {
		t.Errorf("Size = %d", iv.Size())
	}
	if s := iv.String(); s != "{p0:1 p1:2 p2:2}" {
		t.Errorf("String = %q", s)
	}
	// Runs listed out of program order, with a duplicate inside one.
	iv = MustNew(ex, []poset.EventID{
		{Proc: 2, Pos: 2}, {Proc: 0, Pos: 2}, {Proc: 2, Pos: 1}, {Proc: 0, Pos: 1}, {Proc: 0, Pos: 2},
	})
	if s := iv.String(); s != "{p0:1 p0:2 p2:1 p2:2}" {
		t.Errorf("String = %q, want {p0:1 p0:2 p2:1 p2:2}", s)
	}
	if l, _ := iv.LeastOn(2); l != (poset.EventID{Proc: 2, Pos: 1}) {
		t.Errorf("LeastOn(2) = %v, want p2:1", l)
	}
	if g, _ := iv.GreatestOn(0); g != (poset.EventID{Proc: 0, Pos: 2}) {
		t.Errorf("GreatestOn(0) = %v, want p0:2", g)
	}
}

func TestNodeSetAndExtrema(t *testing.T) {
	ex := fixture(t)
	iv := MustNew(ex, []poset.EventID{
		{Proc: 0, Pos: 1}, {Proc: 0, Pos: 2}, {Proc: 2, Pos: 1}, {Proc: 2, Pos: 2},
	})
	ns := iv.NodeSet()
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 2 {
		t.Fatalf("NodeSet = %v, want [0 2]", ns)
	}
	if iv.NodeCount() != 2 {
		t.Errorf("NodeCount = %d", iv.NodeCount())
	}
	if e, ok := iv.LeastOn(0); !ok || e != (poset.EventID{Proc: 0, Pos: 1}) {
		t.Errorf("LeastOn(0) = %v,%v", e, ok)
	}
	if e, ok := iv.GreatestOn(2); !ok || e != (poset.EventID{Proc: 2, Pos: 2}) {
		t.Errorf("GreatestOn(2) = %v,%v", e, ok)
	}
	if _, ok := iv.LeastOn(1); ok {
		t.Errorf("LeastOn(1) should report absence")
	}
	if _, ok := iv.GreatestOn(-1); ok {
		t.Errorf("GreatestOn(-1) should report absence")
	}
	least := iv.PerNodeLeast()
	if len(least) != 2 || least[0] != (poset.EventID{Proc: 0, Pos: 1}) || least[1] != (poset.EventID{Proc: 2, Pos: 1}) {
		t.Errorf("PerNodeLeast = %v", least)
	}
	greatest := iv.PerNodeGreatest()
	if len(greatest) != 2 || greatest[0] != (poset.EventID{Proc: 0, Pos: 2}) || greatest[1] != (poset.EventID{Proc: 2, Pos: 2}) {
		t.Errorf("PerNodeGreatest = %v", greatest)
	}
}

func TestContains(t *testing.T) {
	ex := fixture(t)
	iv := MustNew(ex, []poset.EventID{{Proc: 0, Pos: 2}, {Proc: 1, Pos: 1}})
	cases := map[poset.EventID]bool{
		{Proc: 0, Pos: 2}:  true,
		{Proc: 1, Pos: 1}:  true,
		{Proc: 0, Pos: 1}:  false,
		{Proc: 2, Pos: 1}:  false,
		{Proc: -1, Pos: 0}: false,
		{Proc: 9, Pos: 1}:  false,
	}
	for e, want := range cases {
		if got := iv.Contains(e); got != want {
			t.Errorf("Contains(%v) = %v, want %v", e, got, want)
		}
	}
}

func TestOverlaps(t *testing.T) {
	ex := fixture(t)
	a := MustNew(ex, []poset.EventID{{Proc: 0, Pos: 1}, {Proc: 1, Pos: 1}})
	b := MustNew(ex, []poset.EventID{{Proc: 1, Pos: 1}, {Proc: 2, Pos: 2}})
	c := MustNew(ex, []poset.EventID{{Proc: 2, Pos: 1}})
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Errorf("a and b share p1:1 but Overlaps is false")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Errorf("a and c are disjoint but Overlaps is true")
	}
}

func TestProxyPerNodeDefinition2(t *testing.T) {
	// Under Definition 2 the proxies are per-node extrema; validate the
	// quantifier form: L_X = {e_i ∈ X | ∀e_i' ∈ X on node i, e_i ⪯ e_i'}.
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		ex := posettest.Random(r, 2+r.Intn(4), 4+r.Intn(16), 0.4)
		events := posettest.RandomInterval(r, ex, 8)
		if events == nil {
			continue
		}
		iv := MustNew(ex, events)
		for _, kind := range []ProxyKind{ProxyL, ProxyU} {
			proxy := iv.Proxy(kind, DefPerNode, nil)
			want := make(map[poset.EventID]bool)
			for _, e := range iv.Events() {
				ok := true
				for _, f := range iv.Events() {
					if f.Proc != e.Proc {
						continue
					}
					if kind == ProxyL && !ex.PrecedesEq(e, f) {
						ok = false
					}
					if kind == ProxyU && !ex.PrecedesEq(f, e) {
						ok = false
					}
				}
				if ok {
					want[e] = true
				}
			}
			if len(proxy) != len(want) {
				t.Fatalf("trial %d %v: proxy = %v, want %v", trial, kind, proxy, want)
			}
			for _, e := range proxy {
				if !want[e] {
					t.Fatalf("trial %d %v: unexpected proxy member %v", trial, kind, e)
				}
			}
		}
	}
}

func TestProxyGlobalDefinition3(t *testing.T) {
	// Under Definition 3 the proxies are global extrema; validate against
	// the literal quantifier over all members, using the causality oracle.
	r := rand.New(rand.NewSource(43))
	sawEmpty := false
	for trial := 0; trial < 40; trial++ {
		ex := posettest.Random(r, 2+r.Intn(4), 4+r.Intn(16), 0.5)
		clk := vclock.New(ex)
		events := posettest.RandomInterval(r, ex, 6)
		if events == nil {
			continue
		}
		iv := MustNew(ex, events)
		for _, kind := range []ProxyKind{ProxyL, ProxyU} {
			proxy := iv.Proxy(kind, DefGlobal, clk)
			want := make(map[poset.EventID]bool)
			for _, e := range iv.Events() {
				ok := true
				for _, f := range iv.Events() {
					if kind == ProxyL && !ex.PrecedesEq(e, f) {
						ok = false
					}
					if kind == ProxyU && !ex.PrecedesEq(f, e) {
						ok = false
					}
				}
				if ok {
					want[e] = true
				}
			}
			if len(proxy) != len(want) {
				t.Fatalf("trial %d %v: global proxy = %v, want set %v of %v", trial, kind, proxy, want, iv)
			}
			for _, e := range proxy {
				if !want[e] {
					t.Fatalf("trial %d %v: unexpected member %v", trial, kind, e)
				}
			}
			if len(proxy) == 0 {
				sawEmpty = true
			}
		}
	}
	if !sawEmpty {
		t.Errorf("expected at least one empty Definition-3 proxy across trials (concurrent extrema)")
	}
}

func TestProxyIntervalRoundTrip(t *testing.T) {
	ex := fixture(t)
	clk := vclock.New(ex)
	iv := MustNew(ex, []poset.EventID{{Proc: 0, Pos: 1}, {Proc: 0, Pos: 2}, {Proc: 1, Pos: 2}})
	lx, err := iv.ProxyInterval(ProxyL, DefPerNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lx.Size() != 2 {
		t.Errorf("L_X size = %d, want 2", lx.Size())
	}
	// Per-node proxies are idempotent: L_{L_X} = L_X.
	lx2, err := lx.ProxyInterval(ProxyL, DefPerNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lx2.Size() != lx.Size() {
		t.Errorf("L is not idempotent: %v vs %v", lx2, lx)
	}
	for i, e := range lx2.Events() {
		if lx.Events()[i] != e {
			t.Errorf("L not idempotent at %d", i)
		}
	}
	// Global proxy of two concurrent events is empty and must error.
	conc := MustNew(ex, []poset.EventID{{Proc: 0, Pos: 2}, {Proc: 2, Pos: 1}})
	if _, err := conc.ProxyInterval(ProxyL, DefGlobal, clk); err == nil {
		t.Errorf("expected error for empty global proxy")
	} else if !strings.Contains(err.Error(), "empty") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestProxyPanics(t *testing.T) {
	ex := fixture(t)
	iv := MustNew(ex, []poset.EventID{{Proc: 0, Pos: 1}})
	for _, fn := range []func(){
		func() { iv.Proxy(ProxyL, DefGlobal, nil) },   // missing clocks
		func() { iv.Proxy(ProxyL, ProxyDef(9), nil) }, // unknown def
		func() { MustNew(ex, nil) },                   // invalid interval
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestKindAndDefStrings(t *testing.T) {
	if ProxyL.String() != "L" || ProxyU.String() != "U" {
		t.Errorf("ProxyKind strings wrong")
	}
	if ProxyKind(9).String() == "" || ProxyDef(9).String() == "" {
		t.Errorf("unknown enum strings must be non-empty")
	}
	if !strings.Contains(DefPerNode.String(), "2") || !strings.Contains(DefGlobal.String(), "3") {
		t.Errorf("ProxyDef strings should reference the definitions")
	}
}

// TestProxyNodeSubset checks |N_proxy| ≤ |N_X| and proxies are subsets of X,
// for random intervals (used by the paper's footnote 1).
func TestProxyNodeSubset(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 30; trial++ {
		ex := posettest.Random(r, 2+r.Intn(4), 4+r.Intn(16), 0.4)
		clk := vclock.New(ex)
		events := posettest.RandomInterval(r, ex, 8)
		if events == nil {
			continue
		}
		iv := MustNew(ex, events)
		for _, def := range []ProxyDef{DefPerNode, DefGlobal} {
			for _, kind := range []ProxyKind{ProxyL, ProxyU} {
				proxy := iv.Proxy(kind, def, clk)
				for _, e := range proxy {
					if !iv.Contains(e) {
						t.Fatalf("proxy member %v not in interval", e)
					}
				}
				if len(proxy) > iv.NodeCount() {
					t.Fatalf("proxy has %d events but |N_X| = %d", len(proxy), iv.NodeCount())
				}
			}
		}
	}
}

func TestRestrictTo(t *testing.T) {
	ex := fixture(t)
	iv := MustNew(ex, []poset.EventID{
		{Proc: 0, Pos: 1}, {Proc: 1, Pos: 1}, {Proc: 1, Pos: 2}, {Proc: 2, Pos: 2},
	})
	sub, err := iv.RestrictTo([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 2 || sub.NodeCount() != 1 || sub.NodeSet()[0] != 1 {
		t.Errorf("RestrictTo(1) = %v", sub)
	}
	if _, err := iv.RestrictTo([]int{9}); err == nil {
		t.Errorf("empty restriction accepted")
	}
	multi, err := iv.RestrictTo([]int{0, 2})
	if err != nil || multi.Size() != 2 {
		t.Errorf("RestrictTo(0,2) = %v, %v", multi, err)
	}
}

func TestUnion(t *testing.T) {
	ex := fixture(t)
	a := MustNew(ex, []poset.EventID{{Proc: 0, Pos: 1}})
	b := MustNew(ex, []poset.EventID{{Proc: 0, Pos: 1}, {Proc: 2, Pos: 1}})
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != 2 { // duplicate p0:1 deduped
		t.Errorf("Union = %v", u)
	}
	otherB := poset.NewBuilder(3)
	otherB.Append(0)
	other := otherB.MustBuild()
	foreign := MustNew(other, []poset.EventID{{Proc: 0, Pos: 1}})
	if _, err := a.Union(foreign); err == nil {
		t.Errorf("cross-execution union accepted")
	}
}

func TestBetween(t *testing.T) {
	ex := fixture(t) // three processes with 2 real events each
	iv, err := Between(ex, []int{0, 1, 0}, []int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []poset.EventID{{Proc: 0, Pos: 1}, {Proc: 0, Pos: 2}, {Proc: 1, Pos: 2}, {Proc: 2, Pos: 1}}
	if iv.Size() != len(want) {
		t.Fatalf("Between = %v, want %v", iv.Events(), want)
	}
	for i, e := range iv.Events() {
		if e != want[i] {
			t.Fatalf("Between[%d] = %v, want %v", i, e, want[i])
		}
	}
	// Frontiers above NumReal clamp (⊤ contributes nothing); empty windows
	// and malformed frontiers error.
	if got, err := Between(ex, []int{0, 0, 0}, []int{9, 9, 9}); err != nil || got.Size() != 6 {
		t.Errorf("clamped window = %v, %v", got, err)
	}
	if _, err := Between(ex, []int{2, 2, 2}, []int{2, 2, 2}); err == nil {
		t.Errorf("empty window accepted")
	}
	if _, err := Between(ex, []int{0}, []int{1, 1, 1}); err == nil {
		t.Errorf("malformed frontier accepted")
	}
}

func TestExecutionAccessor(t *testing.T) {
	ex := fixture(t)
	iv := MustNew(ex, []poset.EventID{{Proc: 0, Pos: 1}})
	if iv.Execution() != ex {
		t.Errorf("Execution accessor does not return the source execution")
	}
}

// TestInPlaceMatchesNew: InPlace, given the events New gets (duplicates
// included), orders them in place into New's member list, and its interval,
// which has no execution, answers membership, extremes, Overlaps, the
// per-node proxies and String as New's does. The proxies, the overlap
// report's operands, have no execution either.
func TestInPlaceMatchesNew(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var scratch []poset.EventID
	for trial := 0; trial < 300; trial++ {
		ex := posettest.Random(r, 1+r.Intn(5), 2+r.Intn(30), 0.4)
		xs := posettest.RandomInterval(r, ex, 10)
		xs = append(xs, xs[r.Intn(len(xs))])
		x, y := MustNew(ex, xs), MustNew(ex, posettest.RandomInterval(r, ex, 10))
		events := slices.Clone(xs)
		var got *Interval
		got, scratch = InPlace(ex.NumProcs(), events, scratch)
		if got.Execution() != nil {
			t.Fatal("InPlace interval has an execution")
		}
		if !slices.Equal(got.Events(), x.Events()) || &got.Events()[0] != &events[0] {
			t.Fatalf("InPlace(%v) members %v, want %v ordered in place", xs, got.Events(), x.Events())
		}
		if !slices.Equal(got.NodeSet(), x.NodeSet()) || got.String() != x.String() {
			t.Fatalf("InPlace(%v) = %v over %v, want %v over %v", xs, got, got.NodeSet(), x, x.NodeSet())
		}
		for _, e := range ex.AllEvents() {
			if got.Contains(e) != x.Contains(e) {
				t.Fatalf("%v.Contains(%v) = %v, want %v", got, e, got.Contains(e), x.Contains(e))
			}
		}
		for p := range ex.NumProcs() {
			gl, gok := got.LeastOn(p)
			wl, wok := x.LeastOn(p)
			gg, _ := got.GreatestOn(p)
			wg, _ := x.GreatestOn(p)
			if gl != wl || gok != wok || gg != wg {
				t.Fatalf("%v on p%d: extremes %v..%v, want %v..%v", got, p, gl, gg, wl, wg)
			}
		}
		if got.Overlaps(y) != x.Overlaps(y) || y.Overlaps(got) != y.Overlaps(x) {
			t.Fatalf("%v.Overlaps(%v) = %v, want %v", got, y, got.Overlaps(y), x.Overlaps(y))
		}
		for _, kind := range []ProxyKind{ProxyL, ProxyU} {
			gp, gerr := got.ProxyInterval(kind, DefPerNode, nil)
			wp, werr := x.ProxyInterval(kind, DefPerNode, nil)
			if gerr != nil || werr != nil {
				t.Fatal(gerr, werr)
			}
			if gp.Execution() != nil || gp.String() != wp.String() || gp.Overlaps(y) != wp.Overlaps(y) {
				t.Fatalf("%v proxy of %v = %v, want %v", kind, got, gp, wp)
			}
		}
	}
}
