package obs

import (
	"reflect"
	"sort"
	"sync"

	"gvrt/internal/api"
	"gvrt/internal/trace"
)

// ClusterStats is the head-node rollup: each node's snapshot plus the
// merged cluster-wide view. Merging is one walk over the snapshot's
// fields — counters sum, histograms merge bucket-wise, per-tenant
// bundles merge field-wise — so the cluster view has exactly the same
// shape as a node view and every consumer (gvrt-top, /metrics) works
// unchanged.
type ClusterStats struct {
	// Nodes holds each reachable node's snapshot, keyed by node name.
	Nodes map[string]api.RuntimeStats `json:"nodes"`
	// Merged is the cluster-wide aggregate. Devices is left per-node
	// (see Nodes); all counters, histograms and tenant bundles are
	// summed/merged.
	Merged api.RuntimeStats `json:"merged"`
	// Unreachable maps node names that failed to respond to the fetch
	// error, so a partial rollup is visibly partial.
	Unreachable map[string]string `json:"unreachable,omitempty"`
}

// NodeNames returns the reachable node names, sorted.
func (c ClusterStats) NodeNames() []string {
	out := make([]string, 0, len(c.Nodes))
	for n := range c.Nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MergeStats folds src into dst and returns the sum: every numeric
// field adds, histograms merge bucket-wise, tenants merge by name.
// Devices are deliberately not concatenated — a merged stats view
// reports cluster totals, and per-device detail stays with the
// per-node snapshots.
func MergeStats(dst, src api.RuntimeStats) api.RuntimeStats {
	out := dst
	add(reflect.ValueOf(&out).Elem(), reflect.ValueOf(src))
	out.Devices = nil
	return out
}

var histType = reflect.TypeOf(trace.HistSnapshot{})

// add sums src into dst: numbers add, histograms merge, maps merge by
// key into a fresh map (dst's may be shared with a node snapshot), and
// structs, embedded ones included, recurse. Slices are left alone.
func add(dst, src reflect.Value) {
	switch {
	case dst.Type() == histType:
		dst.Set(reflect.ValueOf(dst.Interface().(trace.HistSnapshot).Merge(src.Interface().(trace.HistSnapshot))))
	case dst.CanInt():
		dst.SetInt(dst.Int() + src.Int())
	case dst.CanUint():
		dst.SetUint(dst.Uint() + src.Uint())
	case dst.Kind() == reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			add(dst.Field(i), src.Field(i))
		}
	case dst.Kind() == reflect.Map && src.Len() > 0:
		m := reflect.MakeMapWithSize(dst.Type(), dst.Len()+src.Len())
		for it := dst.MapRange(); it.Next(); {
			m.SetMapIndex(it.Key(), it.Value())
		}
		for it := src.MapRange(); it.Next(); {
			sum := reflect.New(dst.Type().Elem()).Elem()
			if v := m.MapIndex(it.Key()); v.IsValid() {
				sum.Set(v)
			}
			add(sum, it.Value())
			m.SetMapIndex(it.Key(), sum)
		}
		dst.Set(m)
	}
}

// Collector is the head-node fleet aggregator. The local node's stats
// come from a direct snapshot func; peers are fetched through
// caller-provided closures (gvrtd dials the peer's wire transport and
// issues a StatsCall — the same transport sessions already ride).
type Collector struct {
	mu    sync.Mutex
	self  string
	local func() api.RuntimeStats
	peers map[string]func() (api.RuntimeStats, error)
}

// NewCollector returns a collector whose local node is named self.
func NewCollector(self string, local func() api.RuntimeStats) *Collector {
	return &Collector{self: self, local: local, peers: make(map[string]func() (api.RuntimeStats, error))}
}

// AddPeer registers (or replaces) a peer fetcher under name.
func (c *Collector) AddPeer(name string, fetch func() (api.RuntimeStats, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peers[name] = fetch
}

// Peers returns the registered peer names, sorted.
func (c *Collector) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for n := range c.peers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Collect fans out to every peer concurrently, merges the responses
// with the local snapshot, and reports unreachable peers by error
// string. A cluster with failed peers still yields a (partial) rollup.
func (c *Collector) Collect() ClusterStats {
	c.mu.Lock()
	names := make([]string, 0, len(c.peers))
	fetchers := make([]func() (api.RuntimeStats, error), 0, len(c.peers))
	for n, f := range c.peers {
		names = append(names, n)
		fetchers = append(fetchers, f)
	}
	self, local := c.self, c.local
	c.mu.Unlock()

	out := ClusterStats{Nodes: make(map[string]api.RuntimeStats, len(names)+1)}
	type fetched struct {
		name  string
		stats api.RuntimeStats
		err   error
	}
	ch := make(chan fetched, len(names))
	for i := range names {
		go func(name string, fetch func() (api.RuntimeStats, error)) {
			s, err := fetch()
			ch <- fetched{name, s, err}
		}(names[i], fetchers[i])
	}
	if local != nil {
		out.Nodes[self] = local()
	}
	for range names {
		f := <-ch
		if f.err != nil {
			if out.Unreachable == nil {
				out.Unreachable = make(map[string]string)
			}
			out.Unreachable[f.name] = f.err.Error()
			continue
		}
		out.Nodes[f.name] = f.stats
	}
	for _, name := range out.NodeNames() {
		out.Merged = MergeStats(out.Merged, out.Nodes[name])
	}
	return out
}
