package obs

import (
	"sort"
	"sync"

	"gvrt/internal/api"
	"gvrt/internal/trace"
)

// ClusterStats is the head-node rollup: each node's snapshot plus the
// merged cluster-wide view. Merging rides the PR-4 design — counters
// sum, histograms merge bucket-wise, per-tenant bundles merge
// field-wise — so the cluster view has exactly the same shape as a
// node view and every consumer (gvrt-top, /metrics) works unchanged.
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

// MergeTenantUsage sums two per-tenant bundles.
func MergeTenantUsage(a, b api.TenantUsage) api.TenantUsage {
	return api.TenantUsage{
		Sessions:        a.Sessions + b.Sessions,
		Calls:           a.Calls + b.Calls,
		Errors:          a.Errors + b.Errors,
		Launches:        a.Launches + b.Launches,
		GPUTimeNS:       a.GPUTimeNS + b.GPUTimeNS,
		QueueWaitNS:     a.QueueWaitNS + b.QueueWaitNS,
		SwapBytes:       a.SwapBytes + b.SwapBytes,
		SwapOps:         a.SwapOps + b.SwapOps,
		CheckpointBytes: a.CheckpointBytes + b.CheckpointBytes,
		MigrationBytes:  a.MigrationBytes + b.MigrationBytes,
		DedupSavedBytes: a.DedupSavedBytes + b.DedupSavedBytes,
		FenceRejections: a.FenceRejections + b.FenceRejections,
		QuotaRejects:    a.QuotaRejects + b.QuotaRejects,
		Launch:          a.Launch.Merge(b.Launch),
		QueueWait:       a.QueueWait.Merge(b.QueueWait),
	}
}

// MergeStats folds src into dst and returns the sum: counters add,
// histograms merge, tenants merge by name. Devices are deliberately
// not concatenated — a merged stats view reports cluster totals, and
// per-device detail stays with the per-node snapshots.
func MergeStats(dst, src api.RuntimeStats) api.RuntimeStats {
	out := dst
	out.CallsServed += src.CallsServed
	out.Binds += src.Binds
	out.InterAppSwaps += src.InterAppSwaps
	out.IntraAppSwaps += src.IntraAppSwaps
	out.SwapOps += src.SwapOps
	out.SwapBytes += src.SwapBytes
	out.CheckpointBytes += src.CheckpointBytes
	out.PrefetchIssued += src.PrefetchIssued
	out.PrefetchHits += src.PrefetchHits
	out.PrefetchSkipped += src.PrefetchSkipped
	out.DedupHits += src.DedupHits
	out.DedupSavedBytes += src.DedupSavedBytes
	out.CowBreaks += src.CowBreaks
	out.Migrations += src.Migrations
	out.MigrationsStarted += src.MigrationsStarted
	out.MigrationsCompleted += src.MigrationsCompleted
	out.MigrationsAborted += src.MigrationsAborted
	out.FenceRejections += src.FenceRejections
	out.LeaseRenewals += src.LeaseRenewals
	out.Recoveries += src.Recoveries
	out.Replays += src.Replays
	out.DeviceFailures += src.DeviceFailures
	out.Offloaded += src.Offloaded
	out.UnbindRetries += src.UnbindRetries
	out.BreakerTrips += src.BreakerTrips
	out.Readmissions += src.Readmissions
	out.RetriesSpent += src.RetriesSpent
	out.Sheds += src.Sheds
	out.GPUTimeNS += src.GPUTimeNS
	out.QueueDepth += src.QueueDepth
	out.LiveContexts += src.LiveContexts
	out.Devices = nil

	if len(dst.Histograms) > 0 || len(src.Histograms) > 0 {
		h := make(map[string]trace.HistSnapshot, len(dst.Histograms)+len(src.Histograms))
		for k, v := range dst.Histograms {
			h[k] = v
		}
		for k, v := range src.Histograms {
			h[k] = h[k].Merge(v)
		}
		out.Histograms = h
	}
	if len(dst.Tenants) > 0 || len(src.Tenants) > 0 {
		t := make(map[string]api.TenantUsage, len(dst.Tenants)+len(src.Tenants))
		for k, v := range dst.Tenants {
			t[k] = v
		}
		for k, v := range src.Tenants {
			t[k] = MergeTenantUsage(t[k], v)
		}
		out.Tenants = t
	}
	return out
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
