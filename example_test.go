package causet_test

import (
	"fmt"

	"causet"
)

// Example demonstrates the core path: record an execution, define two
// nonatomic events, and evaluate a relation with the paper's linear-time
// conditions.
func Example() {
	b := causet.NewBuilder(2)
	x1 := b.Append(0)
	y1 := b.Append(1)
	if err := b.Message(x1, y1); err != nil {
		panic(err)
	}
	y2 := b.Append(1)
	ex, err := b.Build()
	if err != nil {
		panic(err)
	}

	a := causet.NewAnalysis(ex)
	fast := causet.NewFast(a)
	x, _ := causet.NewInterval(ex, []causet.EventID{x1})
	y, _ := causet.NewInterval(ex, []causet.EventID{y1, y2})

	held, err := a.EvalChecked(fast, causet.R1, x, y)
	fmt.Println(held, err)
	// Output: true <nil>
}

// ExampleNewMonitor shows the condition DSL: ordering requirements between
// named nonatomic events, checked in one call.
func ExampleNewMonitor() {
	b := causet.NewBuilder(2)
	req := b.Append(0)
	work := b.Append(1)
	if err := b.Message(req, work); err != nil {
		panic(err)
	}
	done := b.Append(1)
	ex, _ := b.Build()

	m := causet.NewMonitor(ex)
	_ = m.Define("request", []causet.EventID{req})
	_ = m.Define("service", []causet.EventID{work, done})
	_ = m.AddCondition("causal-service", "R1(request, service) && !R4(service, request)")

	for _, res := range m.Check() {
		fmt.Println(res.Name, res.State)
	}
	// Output: causal-service holds
}

// ExampleCompose shows the relation algebra: what follows about (X, Z) from
// relations through a shared middle event Y.
func ExampleCompose() {
	t, ok := causet.Compose(causet.R2, causet.R1) // ∀x∃y x≺y, then ∀y∀z y≺z
	fmt.Println(t, ok)
	_, ok = causet.Compose(causet.R2, causet.R3) // nothing follows
	fmt.Println(ok)
	// Output:
	// R1 true
	// false
}

// ExampleNewStream demonstrates online detection: Poll delivers each verdict
// — final — once, as soon as the involved intervals complete.
func ExampleNewStream() {
	s := causet.NewStream(2)
	m := causet.NewOnlineMonitor(s)
	_ = m.AddCondition("handoff", "R1(produce, consume)")

	send, _ := s.Send(0)
	_ = m.Observe("produce", send)
	_ = m.Complete("produce")
	fmt.Println(len(m.Poll())) // consume not complete yet

	recv, _ := s.Recv(1, send)
	_ = m.Observe("consume", recv)
	_ = m.Complete("consume")
	for _, res := range m.Poll() {
		fmt.Println(res.Name, res.State)
	}
	// Output:
	// 0
	// handoff holds
}

// ExampleRelation_ComplexityBound shows Theorem 20's comparison budget per
// relation (with this reproduction's refinement for R2' and R3).
func ExampleRelation_ComplexityBound() {
	fmt.Println(causet.R4.ComplexityBound(3, 8)) // min(|N_X|, |N_Y|)
	fmt.Println(causet.R3.ComplexityBound(3, 8)) // |N_X|
	fmt.Println(causet.R3Prime.ComplexityBound(3, 8))
	// Output:
	// 3
	// 3
	// 8
}
