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
	"gvrt/internal/sim"
	"gvrt/internal/transport"
	"gvrt/internal/workload"
)

// DefaultPeerCallDeadline bounds every proxied call to the peer, in
// model time. Very generous on purpose: an offloaded thread
// legitimately queues for model-minutes on the peer's waiting list
// behind long kernels, so the deadline only catches genuine hangs (a
// partition that bit mid-rendezvous), never load. Fault-plane
// partitions surface as errors, not hangs, so this is the backstop,
// not the first line.
const DefaultPeerCallDeadline = time.Hour

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
	// in-flight proxied calls with a connection error. Once the link
	// heals, the next dial succeeds and offloading resumes.
	link *faultinject.Hook

	mu   sync.Mutex
	peer *Node
	wg   sync.WaitGroup
}

// NewNode builds a compute node with the given devices. cfg configures
// the node's gvrt runtime. A nil PeerDial is wired to the peer SetPeer
// names, over an in-process pipe; set it to offload elsewhere (a TCP
// peer, say).
func NewNode(name string, clock *sim.Clock, specs []gpu.Spec, cfg core.Config) (*Node, error) {
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	crt := cudart.New(clock, devs...)
	n := &Node{Name: name, CRT: crt, clock: clock}
	n.link = cfg.Faults.Hook(faultinject.PointClusterLink, name)
	if cfg.PeerDial == nil {
		cfg.PeerDial = n.dialPeer
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
	return n, nil
}

// SetPeer wires the offload target (§4.7). A node with no peer serves
// everything locally.
func (n *Node) SetPeer(peer *Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peer = peer
}

// dialPeer opens a connection to the peer node's runtime, used by the
// offloading proxy.
func (n *Node) dialPeer() (transport.Conn, error) {
	n.mu.Lock()
	peer := n.peer
	n.mu.Unlock()
	if peer == nil {
		return nil, fmt.Errorf("cluster: node %s has no offload peer", n.Name)
	}
	// The dial itself is one use of the link: a partitioned (or
	// fault-failed) link refuses new offload connections, which makes
	// the connection manager fall back to serving locally.
	if dec := n.link.Check(); dec.Drop || dec.Err != nil {
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
	// Every proxied call re-consults the link (a partition firing
	// mid-offload drops the established connection) and is bounded by
	// the call deadline (no proxied call outlives it).
	conn := transport.WithFaults(c, n.link, n.clock.Sleep)
	conn = transport.WithDeadline(conn, n.clock, DefaultPeerCallDeadline)
	return &observedConn{inner: conn, now: n.clock.Now, note: n.RT.NotePeerCall}, nil
}

// observedConn feeds every call's model-time round trip on a peer
// connection to the node's peer-call latency histogram.
type observedConn struct {
	inner transport.Conn
	now   func() time.Duration
	note  func(time.Duration)
}

func (o *observedConn) Call(call api.Call) (api.Reply, error) {
	start := o.now()
	r, err := o.inner.Call(call)
	o.note(o.now() - start)
	return r, err
}

func (o *observedConn) Close() error { return o.inner.Close() }

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
// the connection manager so the offloading decision applies. A failed
// call returns its code to the application, as a bare CUDA device
// would.
func (n *Node) Connect() (workload.CUDA, error) {
	return frontend.Connect(n.Dial()), nil
}

// Close shuts the node down after all in-flight connections drain.
func (n *Node) Close() {
	n.RT.Close()
	n.wg.Wait()
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
