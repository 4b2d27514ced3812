// Package runtime is a live, goroutine-based message-passing runtime with
// trace-recording middleware. Each node runs application code in its own
// goroutine; sends and receives go through in-memory channels and are
// recorded — together with internal events — as a poset execution that the
// relation evaluators can analyze afterwards.
//
// This is the online counterpart of internal/sim: instead of synthesizing a
// trace shape, real concurrent code produces the trace, demonstrating that
// the paper's machinery applies to actual distributed programs (package
// runtime also hosts the Ricart–Agrawala mutual-exclusion application used
// by the mutex example, one of the paper's motivating scenarios).
package runtime

import (
	"fmt"
	"sync"
	"time"

	"causet/internal/obs"
	"causet/internal/obs/logx"
	"causet/internal/poset"
)

// Envelope is a message in flight: the payload plus the recorded send event,
// which the receiver's middleware links to its receive event.
type Envelope struct {
	From    int
	To      int
	Payload any

	sendEvent poset.EventID
}

// SendEvent returns the recorded send event carried by the envelope. A
// Transport may use it to correlate deliveries with the trace; the receive
// edge itself is always recorded by the runtime, never by the transport.
func (e Envelope) SendEvent() poset.EventID { return e.sendEvent }

// Transport reroutes message delivery. When one is attached (SetTransport),
// Node.Send hands each recorded envelope to Send instead of pushing it into
// the destination inbox, and Node.Recv/TryRecv draw envelopes from
// Recv/TryRecv instead of the inbox channels. A transport may drop,
// duplicate, delay, or reorder envelopes — the send event is already in the
// trace when Send is called, and the runtime records one receive event
// (linked to the envelope's send event) per envelope the transport hands
// back, so every transport behavior yields a structurally valid poset.
//
// Recv blocks until an envelope is available for the node; it may panic to
// unwind a node the transport has decided to crash or kill (internal/faultsim
// relies on this to implement deterministic crash/restart — the unwind is
// caught by the node wrapper installed with SetNodeWrapper).
type Transport interface {
	Send(env Envelope)
	Recv(node int) Envelope
	TryRecv(node int) (Envelope, bool)
}

// NodeWrapper intercepts each node's body: sys.Run calls it (instead of the
// body directly) with the node handle and the body function. A wrapper can
// run the body multiple times — the restart support used by fault injection:
// catch a crash unwind, record crash/restart events via nd.Internal, and
// invoke body again as the restarted incarnation. The poset keeps one local
// execution per node across incarnations (a restart appears as more events
// on the same process, which is exactly the paper's model of a process that
// loses volatile state but keeps its identity).
type NodeWrapper func(nd *Node, body func(*Node))

// System owns the nodes, their channels, and the shared trace recorder.
type System struct {
	n       int
	inboxes []chan Envelope

	transport Transport
	wrapper   NodeWrapper

	mu     sync.Mutex
	b      *poset.Builder
	counts []int
	labels map[poset.EventID]string

	met systemObs
	tr  *obs.Tracer
	lg  *logx.Logger
}

// SetTransport attaches a delivery transport. Call before Run; a nil
// transport restores direct inbox delivery.
func (s *System) SetTransport(t Transport) { s.transport = t }

// SetNodeWrapper attaches a node-body wrapper. Call before Run.
func (s *System) SetNodeWrapper(w NodeWrapper) { s.wrapper = w }

// systemObs holds the system's pre-interned instruments; all nil when
// Instrument was not called.
type systemObs struct {
	events   *obs.Counter
	messages *obs.Counter
	recvWait *obs.Window
	// Per-node gauges (nil slices when uninstrumented): queueDepth tracks
	// each inbox's buffered envelope count after every direct-path push and
	// pop, recvWaitNode the node's last blocking-receive wait — the live
	// backpressure pair the tsdb sampler turns into series.
	queueDepth   []*obs.Gauge
	recvWaitNode []*obs.Gauge
}

// Instrument attaches a metrics registry and/or execution tracer to the
// system; either may be nil. The registry receives runtime.events (every
// recorded poset event, whose rate is the live event rate) and
// runtime.messages (every delivered message), plus the sliding window
// runtime.recv_wait_ns (recent blocking-receive latencies, the per-node
// backpressure signal). The tracer gets one thread-scoped instant per
// labeled event and one "recv-wait" span per blocking Recv, each on the
// node's own timeline (tid = node ID), so a Perfetto view shows per-node
// lanes with their blocking structure; protocol implementations add round
// spans via Node.Span. Call Instrument before Run.
func (s *System) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	s.tr = tr
	if reg != nil {
		s.met.events = reg.Counter("runtime.events")
		s.met.messages = reg.Counter("runtime.messages")
		s.met.recvWait = reg.Window("runtime.recv_wait_ns", 1024)
		s.met.queueDepth = make([]*obs.Gauge, s.n)
		s.met.recvWaitNode = make([]*obs.Gauge, s.n)
		for i := 0; i < s.n; i++ {
			s.met.queueDepth[i] = reg.Gauge(fmt.Sprintf("runtime.queue_depth.node%d", i))
			s.met.recvWaitNode[i] = reg.Gauge(fmt.Sprintf("runtime.recv_wait_ns.node%d", i))
		}
	}
}

// noteQueueDepth refreshes a node's inbox-depth gauge after a direct-path
// push or pop. Envelopes held by an attached Transport are invisible here —
// the gauge tracks the runtime's own channels only.
func (s *System) noteQueueDepth(node int) {
	if s.met.queueDepth == nil {
		return
	}
	s.met.queueDepth[node].Set(int64(len(s.inboxes[node])))
}

// SetLogger attaches a structured event log (may be nil): one Debug event
// per send, receive, internal event, and protocol-round span, each carrying
// the node ID. Call SetLogger before Run.
func (s *System) SetLogger(lg *logx.Logger) { s.lg = lg }

// NewSystem creates a system of n nodes with buffered inboxes. The buffer
// must be large enough that the application's sends never block on a node
// that is itself blocked sending (classic simulation convention; size it at
// the expected total message count or above).
func NewSystem(n, inboxCap int) *System {
	if n < 1 {
		panic(fmt.Sprintf("runtime: NewSystem(%d)", n))
	}
	s := &System{
		n:       n,
		inboxes: make([]chan Envelope, n),
		b:       poset.NewBuilder(n),
		counts:  make([]int, n),
		labels:  make(map[poset.EventID]string),
	}
	for i := range s.inboxes {
		s.inboxes[i] = make(chan Envelope, inboxCap)
	}
	return s
}

// NumNodes reports the number of nodes.
func (s *System) NumNodes() int { return s.n }

// Run executes fn concurrently on every node and waits for all to return.
// It may be called once per System.
func (s *System) Run(fn func(nd *Node)) {
	var wg sync.WaitGroup
	for i := 0; i < s.n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nd := &Node{id: id, sys: s}
			if s.wrapper != nil {
				s.wrapper(nd, fn)
				return
			}
			fn(nd)
		}(i)
	}
	wg.Wait()
}

// Trace finalizes and returns the recorded execution and the event labels.
// Call it after Run has returned.
func (s *System) Trace() (*poset.Execution, map[poset.EventID]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ex, err := s.b.Build()
	if err != nil {
		return nil, nil, err
	}
	labels := make(map[poset.EventID]string, len(s.labels))
	for k, v := range s.labels {
		labels[k] = v
	}
	return ex, labels, nil
}

// record appends one event for node id under the recorder lock.
func (s *System) record(id int, label string) poset.EventID {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.b.Append(id)
	s.counts[id]++
	if label != "" {
		s.labels[e] = label
		s.tr.Instant("runtime", label, int64(id))
	}
	s.met.events.Add(1)
	return e
}

// recordEdge links a send event to a freshly recorded receive event.
func (s *System) recordEdge(from poset.EventID, toNode int, label string) poset.EventID {
	s.mu.Lock()
	defer s.mu.Unlock()
	recv := s.b.Append(toNode)
	s.counts[toNode]++
	if label != "" {
		s.labels[recv] = label
		s.tr.Instant("runtime", label, int64(toNode))
	}
	s.met.events.Add(1)
	s.met.messages.Add(1)
	if err := s.b.Message(from, recv); err != nil {
		// The builder only rejects structurally impossible edges; reaching
		// here indicates recorder corruption, not an application error.
		panic(err)
	}
	return recv
}

// Node is the per-goroutine handle the application code uses. Its methods
// must be called only from the goroutine Run started for this node.
type Node struct {
	id  int
	sys *System
}

// ID returns the node index.
func (nd *Node) ID() int { return nd.id }

// NumNodes reports the system size.
func (nd *Node) NumNodes() int { return nd.sys.n }

// Internal records a local event with the given label and returns it.
func (nd *Node) Internal(label string) poset.EventID {
	e := nd.sys.record(nd.id, label)
	nd.sys.lg.Debug("internal", logx.F("node", nd.id), logx.F("label", label))
	return e
}

// Send records a send event, then delivers the payload to the target node's
// inbox. Sending to self or to an out-of-range node panics (a programming
// error in the application).
func (nd *Node) Send(to int, payload any) poset.EventID {
	if to == nd.id || to < 0 || to >= nd.sys.n {
		panic(fmt.Sprintf("runtime: node %d sending to %d", nd.id, to))
	}
	send := nd.sys.record(nd.id, fmt.Sprintf("send→%d", to))
	nd.sys.lg.Debug("send", logx.F("node", nd.id), logx.F("to", to), logx.F("pos", send.Pos))
	env := Envelope{From: nd.id, To: to, Payload: payload, sendEvent: send}
	if t := nd.sys.transport; t != nil {
		t.Send(env)
	} else {
		nd.sys.inboxes[to] <- env
		nd.sys.noteQueueDepth(to)
	}
	return send
}

// Recv blocks for the next message, records the receive event (linked to
// the sender's send event), and returns the envelope with the event. On an
// instrumented system the blocking wait is recorded as a "recv-wait" span
// on the node's timeline and observed into the runtime.recv_wait_ns
// sliding window.
//
// Ordering guarantees (without a Transport): each node's inbox is a single
// buffered channel, so (1) messages from one sender to one receiver are
// received in send order (per-edge FIFO), and (2) messages from different
// senders interleave in an arbitrary but channel-consistent order — there is
// no global or causal delivery order beyond per-edge FIFO. An attached
// Transport (fault injection) may break per-edge FIFO by dropping,
// duplicating, delaying, or reordering envelopes; the recorded poset stays
// valid because every receive event still links to its own send event.
func (nd *Node) Recv() (Envelope, poset.EventID) {
	s := nd.sys
	timed := s.met.recvWait != nil || s.lg.Enabled(logx.Debug)
	var start time.Time
	if timed {
		start = time.Now()
	}
	sp := s.tr.BeginTID("runtime", "recv-wait", int64(nd.id))
	var env Envelope
	if t := s.transport; t != nil {
		env = t.Recv(nd.id)
	} else {
		env = <-s.inboxes[nd.id]
		s.noteQueueDepth(nd.id)
	}
	sp.End()
	recv := s.recordEdge(env.sendEvent, nd.id, fmt.Sprintf("recv←%d", env.From))
	if timed {
		waitNs := time.Since(start).Nanoseconds()
		s.met.recvWait.Observe(waitNs)
		if s.met.recvWaitNode != nil {
			s.met.recvWaitNode[nd.id].Set(waitNs)
		}
		s.lg.Debug("recv", logx.F("node", nd.id), logx.F("from", env.From), logx.F("wait_ns", waitNs))
	}
	return env, recv
}

// Span opens a tracer span on this node's timeline — protocol
// implementations mark their rounds with it (e.g. one span per
// critical-section entry). On a logged system the round start is also
// emitted as a Debug event. No-op on an uninstrumented system.
func (nd *Node) Span(cat, name string) obs.Span {
	nd.sys.lg.Debug("round", logx.F("node", nd.id), logx.F("cat", cat), logx.F("name", name))
	return nd.sys.tr.BeginTID(cat, name, int64(nd.id))
}

// TryRecv is Recv without blocking; ok is false when the inbox is empty (no
// event is recorded in that case). Emptiness is advisory, not a quiescence
// test: a message may be in flight (a sender between its send event and the
// channel push, or an envelope a Transport is still holding) when TryRecv
// reports false, and under a fault-injecting Transport a false result says
// nothing about messages that were dropped or are still delayed. Protocol
// drain loops must therefore establish "no more messages can arrive" by
// protocol logic (e.g. counting DONE announcements) before trusting an empty
// poll — TestTryRecvNotQuiescence pins this.
func (nd *Node) TryRecv() (Envelope, poset.EventID, bool) {
	if t := nd.sys.transport; t != nil {
		env, ok := t.TryRecv(nd.id)
		if !ok {
			return Envelope{}, poset.EventID{}, false
		}
		recv := nd.sys.recordEdge(env.sendEvent, nd.id, fmt.Sprintf("recv←%d", env.From))
		nd.sys.lg.Debug("recv", logx.F("node", nd.id), logx.F("from", env.From))
		return env, recv, true
	}
	select {
	case env := <-nd.sys.inboxes[nd.id]:
		nd.sys.noteQueueDepth(nd.id)
		recv := nd.sys.recordEdge(env.sendEvent, nd.id, fmt.Sprintf("recv←%d", env.From))
		nd.sys.lg.Debug("recv", logx.F("node", nd.id), logx.F("from", env.From))
		return env, recv, true
	default:
		return Envelope{}, poset.EventID{}, false
	}
}

// Broadcast sends payload to every other node and returns the send events.
func (nd *Node) Broadcast(payload any) []poset.EventID {
	out := make([]poset.EventID, 0, nd.sys.n-1)
	for to := 0; to < nd.sys.n; to++ {
		if to != nd.id {
			out = append(out, nd.Send(to, payload))
		}
	}
	return out
}
