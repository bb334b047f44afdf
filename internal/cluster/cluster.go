// Package cluster implements the cluster-level substrate of the
// paper's evaluation (§2, §5.4): a TORQUE-like batch resource manager
// (the head node) dispatching jobs to compute nodes, each of which runs
// its own CUDA runtime and gvrt runtime daemon.
//
// The head runs in the paper's GPU-oblivious mode (TORQUE + gvrt): the
// GPUs are hidden from it, and it "divides the workload equally between
// the nodes"; sharing, queuing and (when enabled) inter-node offloading
// happen inside the per-node gvrt runtimes. The GPU-serializing
// configuration of §5.4 is the same head over nodes with one vGPU per
// device.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/obs"
	"gvrt/internal/resilience"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
	"gvrt/internal/workload"
)

// Resilience defaults for the peer link. All durations are model time.
const (
	// DefaultBreakerThreshold is the consecutive-failure count that
	// trips the peer-link circuit breaker open.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open breaker refuses
	// traffic before admitting a half-open probe.
	DefaultBreakerCooldown = 500 * time.Millisecond
	// DefaultPeerCallDeadline bounds every proxied call to the peer.
	// Very generous on purpose: an offloaded thread legitimately queues
	// for model-minutes on the peer's waiting list behind long kernels,
	// so the deadline only catches genuine hangs (a partition that bit
	// mid-rendezvous), never load. Fault-plane partitions surface as
	// errors, not hangs, so this is the backstop, not the first line.
	DefaultPeerCallDeadline = time.Hour
	// DefaultProbeInterval is the half-open probe monitor's pace.
	DefaultProbeInterval = 250 * time.Millisecond
)

// Node is one compute node: its GPUs, its CUDA runtime and its gvrt
// runtime daemon.
type Node struct {
	Name string
	CRT  *cudart.Runtime
	RT   *core.Runtime

	clock *sim.Clock
	// link is the fault plane's hook for this node's outbound peer
	// connection (PointClusterLink, labeled with the node name); nil
	// without a matching plan. A sticky partition makes dialPeer fail —
	// so new offloads fall back to local service — and tears down
	// in-flight proxied calls with a connection error.
	link *faultinject.Hook
	// breaker guards the outbound peer link: after
	// DefaultBreakerThreshold consecutive dial/call failures it opens,
	// shouldOffload stops attempting the peer, and the probe monitor
	// pings the link until it heals (half-open → closed).
	breaker *resilience.Breaker
	// retrier is shared by every client the node vends: transparent
	// retries of transient codes under one node-wide token budget.
	retrier *resilience.Retrier

	mu           sync.Mutex
	peer         *Node
	probeRunning bool
	wg           sync.WaitGroup
	probeWG      sync.WaitGroup
	stop         chan struct{}
	stopOnce     sync.Once
}

// NewNode builds a compute node with the given devices. cfg configures
// the node's gvrt runtime; its PeerDial is wired by SetPeer, so leave
// it nil.
func NewNode(name string, clock *sim.Clock, specs []gpu.Spec, cfg core.Config) (*Node, error) {
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	crt := cudart.New(clock, devs...)
	n := &Node{Name: name, CRT: crt, clock: clock, stop: make(chan struct{})}
	n.link = cfg.Faults.Hook(faultinject.PointClusterLink, name)
	n.breaker = resilience.NewBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown, clock.Now)
	if cfg.PeerDial == nil {
		cfg.PeerDial = n.dialPeer
		if cfg.PeerAvailable == nil {
			cfg.PeerAvailable = n.breaker.Ready
		}
	}
	if cfg.NodeName == "" {
		// Lease ownership and migration frames identify nodes by this
		// name; default it to the cluster-visible one.
		cfg.NodeName = name
	}
	rt, err := core.New(crt, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", name, err)
	}
	n.RT = rt
	n.breaker.OnTransition(
		func() { rt.NoteBreakerTrip(name); n.ensureProbe() },
		func() { rt.NoteBreakerHeal(name) },
	)
	n.retrier = resilience.NewRetrier(resilience.RetryPolicy{
		Budget:  resilience.NewBudget(64, 16, clock.Now),
		RNG:     sim.NewRNG(1).Fork("retry/" + name),
		Sleep:   clock.Sleep,
		OnRetry: rt.NoteRetrySpent,
	})
	return n, nil
}

// SetPeer wires the offload target (§4.7). A node with no peer serves
// everything locally.
func (n *Node) SetPeer(peer *Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peer = peer
}

// Breaker exposes the peer link's circuit breaker (tests, operators).
func (n *Node) Breaker() *resilience.Breaker { return n.breaker }

// dialPeer opens a connection to the peer node's runtime, used by the
// offloading proxy. The dial routes through the link's circuit
// breaker: an open breaker refuses instantly, and dial failures count
// toward tripping it.
func (n *Node) dialPeer() (transport.Conn, error) {
	n.mu.Lock()
	peer := n.peer
	n.mu.Unlock()
	if peer == nil {
		return nil, fmt.Errorf("cluster: node %s has no offload peer", n.Name)
	}
	if !n.breaker.Allow() {
		return nil, fmt.Errorf("cluster: node %s peer link breaker open", n.Name)
	}
	// The dial itself is one use of the link: a partitioned (or
	// fault-failed) link refuses new offload connections, which makes
	// the connection manager fall back to serving locally.
	if dec := n.link.Check(); dec.Drop || dec.Err != nil {
		n.breaker.Failure()
		if dec.Err != nil {
			return nil, fmt.Errorf("cluster: node %s peer link: %w", n.Name, dec.Err)
		}
		return nil, fmt.Errorf("cluster: node %s peer link partitioned", n.Name)
	}
	c, s := transport.Pipe()
	peer.wg.Add(1)
	go func() {
		defer peer.wg.Done()
		// Offloaded threads are served directly (they are not
		// re-offloaded: the paper's offloading is one hop).
		peer.RT.Serve(s)
	}()
	// A successful dial resolves a half-open probe in the breaker's
	// favour; per-call outcomes keep adjusting it below.
	n.breaker.Success()
	// Every proxied call re-consults the link (a partition firing
	// mid-offload drops the established connection), is bounded by the
	// call deadline (no proxied call outlives it), and feeds the
	// breaker (timeouts and drops mid-stream trip it too).
	conn := transport.WithFaults(c, n.link, n.clock.Sleep)
	conn = transport.WithDeadline(conn, n.clock, DefaultPeerCallDeadline)
	return &observedConn{inner: conn, breaker: n.breaker, now: n.clock.Now, note: n.RT.NotePeerCall}, nil
}

// observedConn feeds every call outcome on a peer connection to the
// link's circuit breaker and its model-time round trip to the node's
// peer-call latency histogram.
type observedConn struct {
	inner   transport.Conn
	breaker *resilience.Breaker
	now     func() time.Duration
	note    func(time.Duration)
}

func (o *observedConn) Call(call api.Call) (api.Reply, error) {
	start := o.now()
	r, err := o.inner.Call(call)
	o.note(o.now() - start)
	if err != nil {
		o.breaker.Failure()
	} else {
		o.breaker.Success()
	}
	return r, err
}

func (o *observedConn) Close() error { return o.inner.Close() }

// ensureProbe starts the half-open probe monitor; called when the
// breaker trips. The monitor is lazy — it runs only while the breaker
// is non-closed — so healthy clusters carry no extra goroutine.
func (n *Node) ensureProbe() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.probeRunning {
		return
	}
	select {
	case <-n.stop:
		return
	default:
	}
	n.probeRunning = true
	n.probeWG.Add(1)
	go n.probeMonitor()
}

// probeMonitor pings the peer link every probe interval while the
// breaker is open, re-admitting the link (breaker re-closes) as soon
// as a half-open probe succeeds. It exits once the breaker is closed;
// the next trip restarts it.
func (n *Node) probeMonitor() {
	defer n.probeWG.Done()
	for {
		select {
		case <-n.stop:
			n.mu.Lock()
			n.probeRunning = false
			n.mu.Unlock()
			return
		default:
		}
		n.clock.Pace(DefaultProbeInterval)
		n.mu.Lock()
		if n.breaker.Ready() {
			n.probeRunning = false
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		if !n.breaker.Allow() {
			continue // cooldown still running, or another probe in flight
		}
		if err := n.pingPeer(); err != nil {
			n.breaker.Failure()
		} else {
			n.breaker.Success()
		}
	}
}

// pingPeer performs the breaker's half-open probe: one PingCall over a
// fresh link-faulted, deadline-bounded connection. It is the cheapest
// evidence that the partition healed — no real work rides on it.
func (n *Node) pingPeer() error {
	n.mu.Lock()
	peer := n.peer
	n.mu.Unlock()
	if peer == nil {
		return fmt.Errorf("cluster: node %s has no offload peer", n.Name)
	}
	if dec := n.link.Check(); dec.Drop || dec.Err != nil {
		if dec.Err != nil {
			return dec.Err
		}
		return fmt.Errorf("cluster: node %s peer link partitioned", n.Name)
	}
	c, s := transport.Pipe()
	peer.wg.Add(1)
	go func() {
		defer peer.wg.Done()
		peer.RT.Serve(s)
	}()
	conn := transport.WithFaults(c, n.link, n.clock.Sleep)
	conn = transport.WithDeadline(conn, n.clock, DefaultProbeInterval)
	defer func() { _ = conn.Close() }()
	_, err := conn.Call(&api.PingCall{})
	return err
}

// Dial opens a raw client connection to this node, routed through the
// connection manager (HandleConn) so offloading and the refusal of
// connections while draining apply. Callers that need to wrap the conn
// (deadlines, observers) before attaching a frontend use this; Connect
// is the common path.
func (n *Node) Dial() transport.Conn {
	c, s := transport.Pipe()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.RT.HandleConn(s)
	}()
	return c
}

// Connect opens a gvrt client connection to this node, routed through
// the connection manager so the offloading decision applies. The
// client transparently retries transient failures (device re-bind, a
// connection refused while draining) under the node's shared retry
// budget.
func (n *Node) Connect() (workload.CUDA, error) {
	return frontend.Connect(n.Dial()).WithRetry(n.retrier), nil
}

// Close shuts the node down after all in-flight connections drain.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.RT.Close()
	n.wg.Wait()
	n.probeWG.Wait()
}

// FleetCollector builds the cluster-scoped stats collector over a head
// node: self's snapshot is read in-process, every peer is pulled over a
// fresh client connection — the same StatsCall transport gvrt-top uses —
// so aggregation needs no new wire protocol. Mount the result as the
// opserver Source.Fleet on the head node to enable /metrics?scope=cluster.
func FleetCollector(self *Node, peers ...*Node) *obs.Collector {
	c := obs.NewCollector(self.Name, self.RT.Metrics)
	for _, p := range peers {
		if p == self {
			continue
		}
		c.AddPeer(p.Name, func() (api.RuntimeStats, error) {
			cl := frontend.Connect(p.Dial())
			defer cl.Close()
			return cl.Stats()
		})
	}
	return c
}

// Head is the TORQUE-like cluster resource manager.
type Head struct {
	clock *sim.Clock
	nodes []*Node
}

// NewHead builds a head managing the given compute nodes.
func NewHead(clock *sim.Clock, nodes ...*Node) *Head {
	return &Head{clock: clock, nodes: nodes}
}

// RunOblivious dispatches a batch in the GPU-oblivious mode: jobs are
// split between the nodes round-robin ("TORQUE ... divides the workload
// equally between the two nodes", §5.4) and all submitted immediately;
// each node's gvrt runtime does the fine-grained scheduling.
func (h *Head) RunOblivious(apps []workload.App) workload.BatchResult {
	return workload.RunBatch(h.clock, apps, func(i int) (workload.CUDA, error) {
		return h.nodes[i%len(h.nodes)].Connect()
	})
}
